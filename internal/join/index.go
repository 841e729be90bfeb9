package join

import (
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/chainindex"
	"pimtree/internal/core"
	"pimtree/internal/kv"
)

// Index is the per-stream index behaviour the single-writer join engines
// need: the serial IBWJ (Streaming, StepCosts) and the shard engine. Entries
// are (key, ref) pairs whose ref the caller resolves against its own window;
// liveness is the caller's too, passed to Maintain. Remove is a no-op for
// delta-merge indexes (their disposal is batched in Maintain), mirroring
// step 2 of Equations 5 and 6.
type Index interface {
	Insert(p kv.Pair)
	Remove(p kv.Pair)
	Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool)
	// QueryPairs is the columnar form of Query: in-range elements arrive as
	// contiguous []kv.Pair runs aliasing index-owned storage, valid only
	// during the emit call. The hot probe loops use it so the inner band
	// scan runs branch-light over contiguous memory.
	QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool)
	// Maintain runs a pending delta merge, keeping the entries live accepts;
	// survivors is how many there are, which sizes the merged run. Callers
	// bind live once: a func value built per call would allocate.
	Maintain(live func(kv.Pair) bool, survivors int)
	Merges() (int, time.Duration)
	// Eager reports whether evictions must call Remove (the B+-Tree of
	// Section 2.2.1 deletes per tuple; the others dispose in Maintain).
	Eager() bool
}

// The adapters embed their tree, so Query, QueryPairs and (where the
// signatures agree) Insert and Merges are the tree's own methods.

// btreeIndex adapts the classic B+-Tree (Section 2.2.1: eager per-tuple
// deletes, no maintenance).
type btreeIndex struct{ *btree.Tree }

func (x btreeIndex) Insert(p kv.Pair)                 { x.Tree.Insert(p) }
func (x btreeIndex) Remove(p kv.Pair)                 { x.Delete(p) }
func (x btreeIndex) Maintain(func(kv.Pair) bool, int) {}
func (x btreeIndex) Merges() (int, time.Duration)     { return 0, 0 }
func (x btreeIndex) Eager() bool                      { return true }

// chainIdx adapts the chained index: coarse disposal in Maintain, by its own
// insert count against the window length it was built for.
type chainIdx struct {
	*chainindex.Chain
	w, seq uint64
}

func (x *chainIdx) Insert(p kv.Pair) {
	x.Chain.Insert(p, x.seq)
	x.seq++
}
func (x *chainIdx) Remove(kv.Pair)               {}
func (x *chainIdx) Merges() (int, time.Duration) { return 0, 0 }
func (x *chainIdx) Eager() bool                  { return false }
func (x *chainIdx) Maintain(func(kv.Pair) bool, int) {
	if x.seq > x.w {
		x.Advance(x.seq - x.w)
	}
}

// pimIndex adapts the two-stage trees, PIM-Tree and IM-Tree alike: expired
// tuples are filtered by the caller via its window and physically discarded
// at merge time.
type pimIndex struct{ *core.PIMTree }

func (x pimIndex) Remove(kv.Pair) {}
func (x pimIndex) Eager() bool    { return false }
func (x pimIndex) Maintain(live func(kv.Pair) bool, survivors int) {
	if x.NeedsMerge() {
		x.MergeInPlace(live, survivors)
	}
}

// NewIndex builds a single-writer index of the given kind for a window of w
// tuples; w sizes the delta-merge thresholds and the chain's disposal.
// chainLength is L for the chained kinds (0 selects 2); pim configures the
// two-stage indexes, and the IM-Tree, the PIM-Tree at insertion depth 0,
// ignores its InsertionDepth. The Bw-Tree has no adapter — its latch freedom
// buys nothing under one writer, so only paper.RunShared builds it — and
// NewIndex panics on it as on any unknown kind.
func NewIndex(kind IndexKind, w, chainLength int, pim core.PIMTreeConfig) Index {
	switch kind {
	case IndexBTree:
		return btreeIndex{btree.New()}
	case IndexChainB, IndexChainIB:
		if chainLength == 0 {
			chainLength = 2
		}
		v := chainindex.BChain
		if kind == IndexChainIB {
			v = chainindex.IBChain
		}
		return &chainIdx{Chain: chainindex.New(chainLength, w, v), w: uint64(w)}
	case IndexIMTree:
		return pimIndex{core.NewIMTree(w, pim)}
	case IndexPIMTree:
		return pimIndex{core.NewPIMTree(w, pim)}
	default:
		panic("join: no single-writer index for " + kind.String())
	}
}
