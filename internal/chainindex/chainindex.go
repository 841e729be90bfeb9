// Package chainindex implements the chained index of Section 2.2.2
// (Lin et al. / Ya-xin et al.): the sliding window is partitioned into
// arrival-time intervals, each indexed by its own subindex. New tuples go to
// the active subindex; when it reaches its capacity it is archived onto the
// chain and a fresh active subindex starts. Expired tuples are never deleted
// individually — an archived subindex is dropped wholesale once every tuple
// in it has expired (coarse-grained disposal).
//
// Two variants are evaluated in Figure 8b:
//
//   - B-chain: archived subindexes stay classic B+-Trees.
//   - IB-chain: a subindex is converted into an immutable B+-Tree (CSS
//     layout) upon archiving, trading conversion cost for faster lookups.
//
// Queries must search the active subindex plus every archived subindex, which
// is the L-fold search overhead of Equation 3.
package chainindex

import (
	"fmt"

	"pimtree/internal/btree"
	"pimtree/internal/cstree"
	"pimtree/internal/kv"
)

// Variant selects the archived-subindex representation.
type Variant int

const (
	// BChain keeps archived subindexes as classic B+-Trees.
	BChain Variant = iota
	// IBChain converts archived subindexes to immutable B+-Trees.
	IBChain
)

// String names the variant as in Figure 8b.
func (v Variant) String() string {
	if v == IBChain {
		return "IB-chain"
	}
	return "B-chain"
}

// archived is one retired subindex along with the highest sequence number it
// contains, which determines when the whole subindex can be dropped.
type archived struct {
	bt      *btree.Tree  // B-chain representation
	cs      *cstree.Tree // IB-chain representation
	lastSeq uint64       // newest tuple sequence inside
}

// Chain is a chained sliding-window index of length L.
type Chain struct {
	variant   Variant
	l         int // chain length (archived + active)
	capacity  int // tuples per subindex
	active    *btree.Tree
	archive   []archived // oldest first
	activeTop uint64     // newest sequence inserted into active
	length    int
	csConfig  cstree.Config
}

// New creates a chain of length l over a window of length w. Each subindex
// holds w/(l-1) tuples for l >= 2 (so l-1 archived subindexes plus the active
// one cover the window), or w tuples for l == 1.
func New(l, w int, variant Variant) *Chain {
	if l < 1 {
		panic(fmt.Sprintf("chainindex: length %d must be >= 1", l))
	}
	if w < 1 {
		panic(fmt.Sprintf("chainindex: window %d must be >= 1", w))
	}
	capacity := w
	if l >= 2 {
		capacity = w / (l - 1)
		if capacity < 1 {
			capacity = 1
		}
	}
	return &Chain{
		variant:  variant,
		l:        l,
		capacity: capacity,
		active:   btree.New(),
	}
}

// L returns the configured chain length.
func (c *Chain) L() int { return c.l }

// SubindexCapacity returns the per-subindex tuple capacity.
func (c *Chain) SubindexCapacity() int { return c.capacity }

// Len returns the number of stored elements (live and expired-but-undropped).
func (c *Chain) Len() int { return c.length }

// ChainedCount returns the current number of archived subindexes.
func (c *Chain) ChainedCount() int { return len(c.archive) }

// Insert adds p (arriving with sequence number seq) to the active subindex,
// archiving it first if full.
func (c *Chain) Insert(p kv.Pair, seq uint64) {
	if c.active.Len() >= c.capacity {
		c.archiveActive()
	}
	c.active.Insert(p)
	c.activeTop = seq
	c.length++
}

// archiveActive retires the active subindex onto the chain.
func (c *Chain) archiveActive() {
	a := archived{lastSeq: c.activeTop}
	if c.variant == IBChain {
		sorted := c.active.SortedSlice()
		if !kv.IsSorted(sorted) {
			panic("chainindex: archived subindex not sorted")
		}
		a.cs = cstree.Build(sorted, c.csConfig)
		c.active = btree.New()
	} else {
		a.bt = c.active
		c.active = btree.New()
	}
	c.archive = append(c.archive, a)
}

// Advance drops archived subindexes whose entire content has expired:
// a subindex is disposable once its newest tuple is older than oldestLive
// (step 2 of Equation 3, the near-zero disposal cost).
func (c *Chain) Advance(oldestLive uint64) {
	drop := 0
	for drop < len(c.archive) && c.archive[drop].lastSeq < oldestLive {
		if c.archive[drop].bt != nil {
			c.length -= c.archive[drop].bt.Len()
		} else {
			c.length -= c.archive[drop].cs.Len()
		}
		drop++
	}
	if drop > 0 {
		c.archive = append(c.archive[:0], c.archive[drop:]...)
	}
}

// QueryPairs emits every stored element with lo <= Key <= hi, searching
// every archived subindex and then the active one (the
// chain-length-proportional lookup cost of Equation 3). Each subindex emits
// contiguous []kv.Pair runs (per B+-tree leaf, or one run per immutable
// archive) that alias its storage and are only valid during the emit call.
// Results may include expired tuples; callers filter via the window, as in
// IM-/PIM-Tree searches. It returns true when emit refused a run: each
// subindex reports a refusal itself (range exhaustion in one archive must
// not stop the others — they cover the same key space over different time
// intervals), so the chain walk needs no wrapping closure.
func (c *Chain) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	for i := range c.archive {
		if c.archive[i].bt != nil {
			stopped = c.archive[i].bt.QueryPairs(lo, hi, emit)
		} else {
			stopped = c.archive[i].cs.QueryPairs(lo, hi, emit)
		}
		if stopped {
			return true
		}
	}
	return c.active.QueryPairs(lo, hi, emit)
}

// Memory reports the footprint of all subindexes.
func (c *Chain) Memory() (leafBytes, innerBytes int) {
	m := c.active.Memory()
	leafBytes, innerBytes = m.LeafBytes, m.InnerBytes
	for i := range c.archive {
		if c.archive[i].bt != nil {
			am := c.archive[i].bt.Memory()
			leafBytes += am.LeafBytes
			innerBytes += am.InnerBytes
		} else {
			am := c.archive[i].cs.Memory()
			leafBytes += am.LeafBytes
			innerBytes += am.InnerBytes
		}
	}
	return leafBytes, innerBytes
}
