// Package core implements the paper's contribution: the In-memory Merge-Tree
// (IM-Tree, Section 3.2) and its partitioned, concurrency-ready extension,
// the Partitioned In-memory Merge-Tree (PIM-Tree, Section 3.3 and
// Appendix A).
//
// Both are two-stage indexes: a mutable, insert-efficient component TI
// (classic B+-Tree) absorbs arrivals; an immutable, search-efficient
// component TS (CSS-style immutable B+-Tree) holds the bulk. When TI reaches
// m*w elements (m = merge ratio), the components merge: expired tuples are
// discarded, survivors and TI's content become the sorted leaf run of a new
// TS, and TI restarts empty — the coarse-grained tuple disposal that replaces
// per-tuple deletes (Equations 5 and 6).
package core

import (
	"fmt"
	"math"
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/cstree"
	"pimtree/internal/kv"
)

// DefaultMergeRatio is the paper's empirically good single-threaded merge
// ratio for large windows (Figure 9c/d: 1/16 for w = 2^23).
const DefaultMergeRatio = 1.0 / 16

// IMTreeConfig configures an IM-Tree.
type IMTreeConfig struct {
	// MergeRatio is m in the paper: TI merges into TS when it holds m*w
	// elements. Zero selects DefaultMergeRatio; values are clamped to (0, 1].
	MergeRatio float64
	// BTreeOrder is the node capacity of the mutable component (0 = default).
	BTreeOrder int
	// CSTree configures the immutable component's geometry.
	CSTree cstree.Config
}

func (c IMTreeConfig) ratio() float64 {
	m := c.MergeRatio
	if m == 0 {
		m = DefaultMergeRatio
	}
	if m < 0 {
		panic(fmt.Sprintf("core: merge ratio %f must be positive", m))
	}
	if m > 1 {
		m = 1
	}
	return m
}

// IMTree is the single-threaded two-stage index of Section 3.2.
type IMTree struct {
	ti        *btree.Tree
	ts        *cstree.Tree
	w         int
	threshold int
	cfg       IMTreeConfig

	merges        int
	mergeTime     time.Duration
	lastBufferCap int
}

// NewIMTree returns an empty IM-Tree for a window of length w.
func NewIMTree(w int, cfg IMTreeConfig) *IMTree {
	if w <= 0 {
		panic(fmt.Sprintf("core: window %d must be positive", w))
	}
	m := cfg.ratio()
	threshold := int(m * float64(w))
	if threshold < 1 {
		threshold = 1
	}
	order := cfg.BTreeOrder
	if order == 0 {
		order = btree.DefaultOrder
	}
	return &IMTree{
		ti:        btree.NewOrder(order),
		ts:        cstree.Build(nil, cfg.CSTree),
		w:         w,
		threshold: threshold,
		cfg:       cfg,
	}
}

// Len returns the number of stored elements (TI plus TS, including
// expired-but-unmerged ones).
func (t *IMTree) Len() int { return t.ti.Len() + t.ts.Len() }

// TILen returns the size of the mutable component.
func (t *IMTree) TILen() int { return t.ti.Len() }

// TSLen returns the size of the immutable component.
func (t *IMTree) TSLen() int { return t.ts.Len() }

// MergeThreshold returns m*w in elements.
func (t *IMTree) MergeThreshold() int { return t.threshold }

// Insert adds p to the mutable component.
func (t *IMTree) Insert(p kv.Pair) { t.ti.Insert(p) }

// NeedsMerge reports whether TI has reached the merge threshold.
func (t *IMTree) NeedsMerge() bool { return t.ti.Len() >= t.threshold }

// Merge combines TI into TS, discarding elements for which live returns
// false (Section 3.2's expired-tuple elimination), and resets TI. It returns
// the wall time spent, the paper's Figure 14 measurement. survivors sizes the
// new TS as in PIMTree.MergeInPlace.
func (t *IMTree) Merge(live func(kv.Pair) bool, survivors ...int) time.Duration {
	start := time.Now()
	run := kv.MergeFiltered(t.ts.Leaves(), t.ti.SortedSlice(), live, mergeCap(survivors))
	t.lastBufferCap = cap(run) * kv.PairBytes
	t.ts = cstree.Build(run, t.cfg.CSTree)
	t.ti.Reset()
	d := time.Since(start)
	t.merges++
	t.mergeTime += d
	return d
}

// mergeCap is the merged run's capacity: the caller's survivor count when it
// passed one, else no limit, which kv.MergeFiltered caps at both inputs.
func mergeCap(survivors []int) int {
	if len(survivors) > 0 {
		return survivors[0]
	}
	return math.MaxInt
}

// Query emits every element with lo <= Key <= hi: first the immutable
// component, then the mutable one. Results may include expired tuples; the
// caller filters them against the window, exactly as the paper's join does.
// Returns true when emit asked to stop early. The component queries report
// emit-refusal themselves, so the composition needs no wrapping closure —
// this method is allocation-free.
func (t *IMTree) Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool) {
	if t.ts.Query(lo, hi, emit) {
		return true
	}
	return t.ti.Query(lo, hi, emit)
}

// QueryPairs is the columnar form of Query: contiguous in-range runs from
// the immutable component's leaf array, then from the mutable B+-tree's
// leaves. Slices alias index-owned storage and are only valid during the
// emit call. Returns true when emit asked to stop early.
func (t *IMTree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	if t.ts.QueryPairs(lo, hi, emit) {
		return true
	}
	return t.ti.QueryPairs(lo, hi, emit)
}

// Merges returns the number of merges performed and their cumulative time.
func (t *IMTree) Merges() (int, time.Duration) { return t.merges, t.mergeTime }

// MemoryStats describes component footprints for Figure 11a.
type MemoryStats struct {
	TSLeafBytes  int
	TSInnerBytes int
	TIBytes      int
	BufferBytes  int // merge buffer (the extra space of Figure 11a)
}

// Memory reports the IM-Tree footprint.
func (t *IMTree) Memory() MemoryStats {
	tim := t.ti.Memory()
	tsm := t.ts.Memory()
	return MemoryStats{
		TSLeafBytes:  tsm.LeafBytes,
		TSInnerBytes: tsm.InnerBytes,
		TIBytes:      tim.LeafBytes + tim.InnerBytes,
		BufferBytes:  t.lastBufferCap,
	}
}
