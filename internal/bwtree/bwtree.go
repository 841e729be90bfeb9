// Package bwtree implements a Bw-Tree (Levandoski et al., ICDE 2013), the
// state-of-the-art latch-free parallel index the paper uses as its
// multithreaded baseline (Figures 8a, 12c, 13c).
//
// The implementation reproduces the defining Bw-Tree mechanics:
//
//   - a mapping table of logical page ids (PIDs) holding atomic pointers to
//     delta chains,
//   - updates posted as insert/delete delta records prepended with a single
//     compare-and-swap — no latches on the read or update path,
//   - chain consolidation once a chain exceeds a threshold,
//   - B-link-style side pointers and high keys so readers traverse safely
//     while structure modifications are in flight.
//
// Two deliberate simplifications relative to the original system: structure
// modifications (splits and parent updates) are serialized on a small mutex
// rather than being fully
// latch-free (reads and updates stay lock-free; SMOs are rare and
// amortized), and garbage reclamation is delegated to the Go garbage
// collector, which plays the role of the original's epoch manager. Neither
// changes the contention profile the paper measures: CAS conflicts
// concentrate on hot leaf chains when the tree is small and dissipate as it
// grows, which is exactly the behaviour of Figure 8a.
package bwtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pimtree/internal/kv"
	"pimtree/internal/metrics"
)

// Geometry defaults; chosen to mirror the classic B+-Tree's node sizes.
const (
	DefaultMaxLeaf       = 64 // max elements in a consolidated leaf
	DefaultMaxInner      = 64 // max separators in an inner node
	DefaultConsolidateAt = 8  // delta-chain length triggering consolidation
)

const unboundedHigh = uint64(1) << 32 // exclusive high key: no bound

type kind uint8

const (
	kInsert kind = iota
	kDelete
	kLeaf
	kInner
)

// delta is a node in a delta chain. Depending on kind it is an update record
// (kInsert/kDelete) or a consolidated base page (kLeaf/kInner). Base pages
// are immutable once published.
type delta struct {
	kind  kind
	pair  kv.Pair // kInsert/kDelete payload
	next  *delta  // toward the base page
	chain int     // records above (and including) this one, 0 for bases

	pairs []kv.Pair // kLeaf: sorted elements

	seps     []uint32 // kInner: separator keys; child i covers keys < seps[i]
	children []uint64 // kInner: child PIDs, len = len(seps)+1

	side uint64 // right-sibling PID (0 = none) — B-link pointer
	high uint64 // exclusive upper key bound; unboundedHigh = none
}

// Tree is a concurrent Bw-Tree of kv.Pair elements.
type Tree struct {
	mapping []atomic.Pointer[delta]
	nextPID atomic.Uint64
	root    atomic.Uint64
	smoMu   sync.Mutex
	length  atomic.Int64

	maxLeaf       int
	maxInner      int
	consolidateAt int
}

// Config controls tree geometry; zero values select defaults.
type Config struct {
	MaxLeaf       int
	MaxInner      int
	ConsolidateAt int
	// MappingSlots caps the number of logical pages. Zero selects a size
	// generous enough for the configured workload (see New).
	MappingSlots int
}

// New returns an empty tree sized for roughly expectedElems live elements.
func New(expectedElems int, cfg Config) *Tree {
	if cfg.MaxLeaf == 0 {
		cfg.MaxLeaf = DefaultMaxLeaf
	}
	if cfg.MaxInner == 0 {
		cfg.MaxInner = DefaultMaxInner
	}
	if cfg.ConsolidateAt == 0 {
		cfg.ConsolidateAt = DefaultConsolidateAt
	}
	if cfg.MaxLeaf < 4 || cfg.MaxInner < 4 {
		panic("bwtree: node capacities must be at least 4")
	}
	if cfg.MappingSlots == 0 {
		slots := 64 * (expectedElems/cfg.MaxLeaf + 1)
		if slots < 1<<12 {
			slots = 1 << 12
		}
		cfg.MappingSlots = slots
	}
	t := &Tree{
		mapping:       make([]atomic.Pointer[delta], cfg.MappingSlots),
		maxLeaf:       cfg.MaxLeaf,
		maxInner:      cfg.MaxInner,
		consolidateAt: cfg.ConsolidateAt,
	}
	t.nextPID.Store(1) // PID 0 is the nil sibling
	rootPID := t.allocPID()
	t.mapping[rootPID].Store(&delta{kind: kLeaf, high: unboundedHigh})
	t.root.Store(rootPID)
	return t
}

func (t *Tree) allocPID() uint64 {
	pid := t.nextPID.Add(1) - 1
	if pid >= uint64(len(t.mapping)) {
		panic(fmt.Sprintf("bwtree: mapping table exhausted (%d slots); size the tree for the workload", len(t.mapping)))
	}
	return pid
}

// Len returns the number of live elements.
func (t *Tree) Len() int { return int(t.length.Load()) }

// Height returns the number of levels from root to leaves.
func (t *Tree) Height() int {
	h := 1
	pid := t.root.Load()
	for {
		n := baseOf(t.mapping[pid].Load())
		if n.kind == kLeaf {
			return h
		}
		h++
		pid = n.children[0]
	}
}

// baseOf walks a delta chain to its base page.
func baseOf(d *delta) *delta {
	for d.kind == kInsert || d.kind == kDelete {
		d = d.next
	}
	return d
}

// childIndex routes key within an inner page: child i covers keys < seps[i].
func childIndex(seps []uint32, key uint32) int {
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < seps[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// findLeaf descends to the leaf responsible for key, chasing side pointers
// across in-flight splits, and returns its PID and the chain head observed.
func (t *Tree) findLeaf(key uint32) (uint64, *delta) {
	pid := t.root.Load()
	for {
		head := t.mapping[pid].Load()
		base := baseOf(head)
		metrics.Load(32)
		if uint64(key) >= base.high {
			pid = base.side
			continue
		}
		if base.kind == kInner {
			pid = base.children[childIndex(base.seps, key)]
			continue
		}
		return pid, head
	}
}

// Insert adds p. It is safe for concurrent use.
func (t *Tree) Insert(p kv.Pair) {
	for {
		pid, head := t.findLeaf(p.Key)
		d := &delta{kind: kInsert, pair: p, next: head, chain: head.chain + 1}
		if t.mapping[pid].CompareAndSwap(head, d) {
			metrics.Store(kv.PairBytes)
			t.length.Add(1)
			if d.chain > t.consolidateAt {
				t.consolidate(pid)
			}
			return
		}
		// CAS conflict: another thread updated this page — the contention
		// the paper observes on small trees. Retry from the root (the page
		// may have split meanwhile).
	}
}

// Delete removes the exact element p, returning false if absent.
func (t *Tree) Delete(p kv.Pair) bool {
	for {
		pid, head := t.findLeaf(p.Key)
		pairs, _ := materialize(head)
		i := lowerBoundPair(pairs, p)
		if i >= len(pairs) || pairs[i] != p {
			return false
		}
		d := &delta{kind: kDelete, pair: p, next: head, chain: head.chain + 1}
		if t.mapping[pid].CompareAndSwap(head, d) {
			metrics.Store(kv.PairBytes)
			t.length.Add(-1)
			if d.chain > t.consolidateAt {
				t.consolidate(pid)
			}
			return true
		}
	}
}

// Contains reports whether the exact element p is present.
func (t *Tree) Contains(p kv.Pair) bool {
	_, head := t.findLeaf(p.Key)
	pairs, _ := materialize(head)
	i := lowerBoundPair(pairs, p)
	return i < len(pairs) && pairs[i] == p
}

// QueryPairs emits the elements with lo <= Key <= hi in order, traversing
// leaves through side pointers: each leaf's in-range run is one contiguous
// []kv.Pair from that leaf's consistent chain snapshot (consolidated pages
// emit their base array directly; pages with pending deltas emit the
// materialized copy). Runs are only valid during the emit call. It returns
// true when emit refused a run, false when the range was exhausted.
func (t *Tree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	pid, head := t.findLeaf(lo)
	for {
		pairs, base := materialize(head)
		metrics.Load(len(pairs) * kv.PairBytes)
		i := kv.LowerBound(pairs, lo)
		if len(pairs) > 0 && pairs[len(pairs)-1].Key > hi {
			j := i + kv.UpperBound(pairs[i:], hi)
			if i < j && !emit(pairs[i:j]) {
				return true
			}
			return false
		}
		if i < len(pairs) && !emit(pairs[i:]) {
			return true
		}
		if base.high > uint64(hi) || base.side == 0 {
			return false
		}
		pid = base.side
		head = t.mapping[pid].Load()
	}
}

// materialize applies a delta chain newest-first over its base page and
// returns the consolidated sorted view plus the base.
func materialize(head *delta) ([]kv.Pair, *delta) {
	if head.kind == kLeaf {
		return head.pairs, head
	}
	var ins, del []kv.Pair
	d := head
	for d.kind == kInsert || d.kind == kDelete {
		p := d.pair
		if !containsPair(ins, p) && !containsPair(del, p) {
			if d.kind == kInsert {
				ins = append(ins, p)
			} else {
				del = append(del, p)
			}
		}
		d = d.next
	}
	base := d
	if len(ins) == 0 && len(del) == 0 {
		return base.pairs, base
	}
	kv.Sort(ins)
	out := make([]kv.Pair, 0, len(base.pairs)+len(ins))
	i, j := 0, 0
	for i < len(base.pairs) || j < len(ins) {
		var p kv.Pair
		switch {
		case i >= len(base.pairs):
			p = ins[j]
			j++
		case j >= len(ins):
			p = base.pairs[i]
			i++
		case ins[j].Less(base.pairs[i]):
			p = ins[j]
			j++
		default:
			p = base.pairs[i]
			i++
		}
		if !containsPair(del, p) {
			out = append(out, p)
		}
	}
	return out, base
}

func containsPair(ps []kv.Pair, p kv.Pair) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func lowerBoundPair(pairs []kv.Pair, p kv.Pair) int {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := (lo + hi) / 2
		if pairs[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// consolidate replaces pid's delta chain with a fresh base page, splitting
// first if the consolidated content overflows.
func (t *Tree) consolidate(pid uint64) {
	head := t.mapping[pid].Load()
	if head.kind != kLeaf && head.kind != kInsert && head.kind != kDelete {
		return
	}
	if head.chain == 0 {
		return // already consolidated
	}
	pairs, base := materialize(head)
	if len(pairs) <= t.maxLeaf {
		nn := &delta{kind: kLeaf, pairs: clonePairs(pairs), side: base.side, high: base.high}
		// A failed CAS means a racing update; the next consolidation
		// attempt will pick it up.
		t.mapping[pid].CompareAndSwap(head, nn)
		return
	}
	t.splitLeaf(pid)
}

func clonePairs(ps []kv.Pair) []kv.Pair {
	out := make([]kv.Pair, len(ps))
	copy(out, ps)
	return out
}

// splitLeaf performs a leaf split as a two-step Bw-Tree SMO: install the new
// right sibling under a fresh PID, CAS the left half over the old chain, then
// post the separator to the parent. SMOs are serialized on smoMu; readers
// and updaters never block on it.
func (t *Tree) splitLeaf(pid uint64) {
	t.smoMu.Lock()
	defer t.smoMu.Unlock()

	head := t.mapping[pid].Load()
	base := baseOf(head)
	if base.kind != kLeaf {
		return
	}
	pairs, _ := materialize(head)
	if len(pairs) <= t.maxLeaf {
		nn := &delta{kind: kLeaf, pairs: clonePairs(pairs), side: base.side, high: base.high}
		t.mapping[pid].CompareAndSwap(head, nn)
		return
	}
	idx := splitPoint(pairs)
	if idx == 0 {
		// A single key's duplicates exceed the node capacity; tolerate an
		// oversized node (it cannot be split by key).
		nn := &delta{kind: kLeaf, pairs: clonePairs(pairs), side: base.side, high: base.high}
		t.mapping[pid].CompareAndSwap(head, nn)
		return
	}
	sep := pairs[idx].Key
	rightPID := t.allocPID()
	t.mapping[rightPID].Store(&delta{
		kind:  kLeaf,
		pairs: clonePairs(pairs[idx:]),
		side:  base.side,
		high:  base.high,
	})
	left := &delta{
		kind:  kLeaf,
		pairs: clonePairs(pairs[:idx]),
		side:  rightPID,
		high:  uint64(sep),
	}
	if !t.mapping[pid].CompareAndSwap(head, left) {
		// A racing update landed between our snapshot and the CAS; abandon
		// this SMO (rightPID becomes garbage) and let a later
		// consolidation retry.
		return
	}
	t.postParentEntry(pid, pairs[idx-1].Key, sep, rightPID)
}

// splitPoint returns the index where the key changes nearest to the middle,
// keeping duplicate runs intact; 0 means no valid split point exists.
func splitPoint(pairs []kv.Pair) int {
	mid := len(pairs) / 2
	for d := 0; d <= mid; d++ {
		if i := mid - d; i > 0 && pairs[i].Key != pairs[i-1].Key {
			return i
		}
		if i := mid + d; i < len(pairs) && i > 0 && pairs[i].Key != pairs[i-1].Key {
			return i
		}
	}
	return 0
}

// postParentEntry inserts (sep -> rightPID) into the parent of childPID,
// splitting inner nodes upward as needed. Called with smoMu held; routeKey is
// a key that routes to childPID (its largest remaining key).
func (t *Tree) postParentEntry(childPID uint64, routeKey, sep uint32, rightPID uint64) {
	rootPID := t.root.Load()
	if childPID == rootPID {
		t.growRoot(childPID, sep, rightPID)
		return
	}
	// Record the descent path to childPID. Under smoMu the structure is
	// quiescent (all prior SMOs completed their parent posts), so the
	// descent needs no side-pointer chasing.
	var path []uint64
	pid := rootPID
	for pid != childPID {
		path = append(path, pid)
		n := baseOf(t.mapping[pid].Load())
		if n.kind != kInner {
			panic("bwtree: parent descent reached a foreign leaf")
		}
		pid = n.children[childIndex(n.seps, routeKey)]
	}

	insSep, insChild := sep, rightPID
	for level := len(path) - 1; level >= 0; level-- {
		parentPID := path[level]
		parent := baseOf(t.mapping[parentPID].Load())
		at := childIndex(parent.seps, insSep)
		seps := make([]uint32, 0, len(parent.seps)+1)
		seps = append(seps, parent.seps[:at]...)
		seps = append(seps, insSep)
		seps = append(seps, parent.seps[at:]...)
		children := make([]uint64, 0, len(parent.children)+1)
		children = append(children, parent.children[:at+1]...)
		children = append(children, insChild)
		children = append(children, parent.children[at+1:]...)

		if len(seps) <= t.maxInner {
			t.mapping[parentPID].Store(&delta{
				kind: kInner, seps: seps, children: children,
				side: parent.side, high: parent.high,
			})
			return
		}
		// Split the overflowing inner node and keep propagating upward.
		mid := len(seps) / 2
		promoted := seps[mid]
		rightInnerPID := t.allocPID()
		t.mapping[rightInnerPID].Store(&delta{
			kind: kInner,
			seps: append([]uint32{}, seps[mid+1:]...), children: append([]uint64{}, children[mid+1:]...),
			side: parent.side, high: parent.high,
		})
		t.mapping[parentPID].Store(&delta{
			kind: kInner,
			seps: append([]uint32{}, seps[:mid]...), children: append([]uint64{}, children[:mid+1]...),
			side: rightInnerPID, high: uint64(promoted),
		})
		insSep, insChild = promoted, rightInnerPID
		if level == 0 {
			t.growRoot(parentPID, promoted, rightInnerPID)
			return
		}
	}
}

// growRoot installs a new root above a split old root.
func (t *Tree) growRoot(leftPID uint64, sep uint32, rightPID uint64) {
	newRoot := t.allocPID()
	t.mapping[newRoot].Store(&delta{
		kind:     kInner,
		seps:     []uint32{sep},
		children: []uint64{leftPID, rightPID},
		high:     unboundedHigh,
	})
	t.root.Store(newRoot)
}

// CheckInvariants validates ordering, key bounds, and reachability. Intended
// for tests on a quiescent tree.
func (t *Tree) CheckInvariants() error {
	count := 0
	var prev *kv.Pair
	// Walk the leaf level via side pointers.
	pid := t.root.Load()
	depth := 0
	for {
		n := baseOf(t.mapping[pid].Load())
		if n.kind == kLeaf {
			break
		}
		if len(n.children) != len(n.seps)+1 {
			return fmt.Errorf("bwtree: inner with %d children, %d seps", len(n.children), len(n.seps))
		}
		pid = n.children[0]
		depth++
		if depth > 64 {
			return fmt.Errorf("bwtree: descent depth exceeded")
		}
	}
	var low uint64
	for pid != 0 {
		head := t.mapping[pid].Load()
		pairs, base := materialize(head)
		for i := range pairs {
			p := pairs[i]
			if prev != nil && !prev.Less(p) {
				return fmt.Errorf("bwtree: order violation at %v", p)
			}
			if uint64(p.Key) < low {
				return fmt.Errorf("bwtree: key %d below node low bound %d", p.Key, low)
			}
			if uint64(p.Key) >= base.high {
				return fmt.Errorf("bwtree: key %d at or above high bound %d", p.Key, base.high)
			}
			prev = &pairs[i]
			count++
		}
		low = base.high
		pid = base.side
	}
	if count != t.Len() {
		return fmt.Errorf("bwtree: length %d but %d elements reachable", t.Len(), count)
	}
	return nil
}

// Stats reports structural counters for diagnostics.
type Stats struct {
	Pages  int
	Height int
	Len    int
}

// StatsNow returns current structural counters.
func (t *Tree) StatsNow() Stats {
	return Stats{
		Pages:  int(t.nextPID.Load() - 1),
		Height: t.Height(),
		Len:    t.Len(),
	}
}
