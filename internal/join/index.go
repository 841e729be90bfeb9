package join

import (
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/core"
	"pimtree/internal/kv"
)

// Index is the per-stream index behaviour the single-writer join engines
// need: the serial IBWJ (Streaming) and the shard engine. Entries
// are (key, ref) pairs whose ref the caller resolves against its own window;
// liveness is the caller's too, passed to Maintain. Remove is a no-op for
// delta-merge indexes (their disposal is batched in Maintain), mirroring
// step 2 of Equations 5 and 6.
type Index interface {
	Insert(p kv.Pair)
	Remove(p kv.Pair)
	// QueryPairs emits the entries with lo <= key <= hi as contiguous
	// []kv.Pair runs aliasing index-owned storage, valid only during the
	// emit call, so the probe loops run branch-light over contiguous
	// memory. It reports whether emit refused a run; a refused run is the
	// last one emitted.
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

// The adapters embed their tree, so QueryPairs and (where the signatures
// agree) Insert and Merges are the tree's own methods.

// btreeIndex adapts the classic B+-Tree (Section 2.2.1: eager per-tuple
// deletes, no maintenance).
type btreeIndex struct{ *btree.Tree }

func (x btreeIndex) Insert(p kv.Pair)                 { x.Tree.Insert(p) }
func (x btreeIndex) Remove(p kv.Pair)                 { x.Delete(p) }
func (x btreeIndex) Maintain(func(kv.Pair) bool, int) {}
func (x btreeIndex) Merges() (int, time.Duration)     { return 0, 0 }
func (x btreeIndex) Eager() bool                      { return true }

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
// tuples; w sizes the delta-merge thresholds. pim configures the two-stage
// indexes, and the IM-Tree, the PIM-Tree at insertion depth 0, ignores its
// InsertionDepth. NewIndex panics on any kind but the three the service
// builds.
func NewIndex(kind IndexKind, w int, pim core.PIMTreeConfig) Index {
	switch kind {
	case IndexBTree:
		return btreeIndex{btree.New()}
	case IndexIMTree:
		return pimIndex{core.NewIMTree(w, pim)}
	case IndexPIMTree:
		return pimIndex{core.NewPIMTree(w, pim)}
	default:
		panic("join: no single-writer index for " + kind.String())
	}
}
