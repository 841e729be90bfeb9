// Package core implements the paper's contribution: the In-memory Merge-Tree
// (IM-Tree, Section 3.2) and its partitioned, concurrency-ready extension,
// the Partitioned In-memory Merge-Tree (PIM-Tree, Section 3.3 and
// Appendix A). One type, PIMTree, is both: the IM-Tree is the PIM-Tree at
// insertion depth 0, whose TI is a single B+-Tree under TS's root.
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

// DefaultInsertionDepth is DI in the paper; Figure 8c/d find 2 a good
// default for single-threaded use and >= 2 necessary for parallel use.
const DefaultInsertionDepth = 2

// PIMTreeConfig configures a PIM-Tree or an IM-Tree.
type PIMTreeConfig struct {
	// MergeRatio is m: TI merges into TS when it holds m*w elements. Zero
	// selects DefaultMergeRatio; values above 1 are clamped to 1. The paper
	// sets m=1 for multithreaded runs (Figure 9a).
	MergeRatio float64
	// InsertionDepth is DI, the TS depth whose nodes anchor the subindexes
	// (root = depth 0). Clamped to the feasible range at every merge.
	// Zero selects DefaultInsertionDepth. NewIMTree ignores it.
	InsertionDepth int
	// BTreeOrder is the node capacity of the subindex B+-Trees.
	BTreeOrder int
	// CSTree configures the immutable component.
	CSTree cstree.Config
}

func (c PIMTreeConfig) ratio() float64 {
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

// PIMTree is the Partitioned In-memory Merge-Tree of Section 3.3 for one
// writer: the "without concurrency control" tree of Figure 12a, which every
// shard and the serial join own outright. TI is one B+-Tree per TS node at
// the insertion depth (one in all at depth 0, the IM-Tree); a range scan
// walks them in key order. SharedPIMTree adds the paper's locks for
// concurrent writers.
type PIMTree struct {
	threshold int
	di        int
	cfg       PIMTreeConfig
	order     int

	ts     *cstree.Tree
	subs   []*btree.Tree // subs[i] is the subindex Bi
	bounds []uint32      // bounds[i]: largest key routed to subindex i
	effDI  int           // clamped insertion depth used for routing
	tiLen  int

	merges        int
	mergeTime     time.Duration
	lastBufferCap int
}

// NewPIMTree returns an empty PIM-Tree for a window of length w.
func NewPIMTree(w int, cfg PIMTreeConfig) *PIMTree {
	di := cfg.InsertionDepth
	if di == 0 {
		di = DefaultInsertionDepth
	}
	if di < 0 {
		panic(fmt.Sprintf("core: insertion depth %d must be >= 0", di))
	}
	return newPIMTree(w, cfg, di)
}

// NewIMTree returns an empty IM-Tree (Section 3.2) for a window of length w:
// the PIM-Tree at insertion depth 0, with one TI B+-Tree under TS's root.
// cfg.InsertionDepth is ignored.
func NewIMTree(w int, cfg PIMTreeConfig) *PIMTree { return newPIMTree(w, cfg, 0) }

func newPIMTree(w int, cfg PIMTreeConfig, di int) *PIMTree {
	if w <= 0 {
		panic(fmt.Sprintf("core: window %d must be positive", w))
	}
	threshold := int(cfg.ratio() * float64(w))
	if threshold < 1 {
		threshold = 1
	}
	order := cfg.BTreeOrder
	if order == 0 {
		order = btree.DefaultOrder
	}
	t := &PIMTree{
		threshold: threshold,
		di:        di,
		cfg:       cfg,
		order:     order,
	}
	t.install(cstree.Build(nil, cfg.CSTree))
	return t
}

// install wires a new TS and rebuilds the subindex array for it: one Bi per
// TS inner node at the (clamped) insertion depth, with fresh empty B+-Trees
// and recomputed range bounds.
func (t *PIMTree) install(ts *cstree.Tree) {
	t.ts = ts
	t.effDI = t.di
	if max := ts.InnerDepth() - 1; t.effDI > max {
		t.effDI = max
	}
	if t.effDI < 0 {
		t.effDI = 0
	}
	n := ts.NodesAtDepth(t.effDI)
	if n < 1 {
		n = 1
	}
	t.subs = make([]*btree.Tree, n)
	for i := range t.subs {
		t.subs[i] = btree.NewOrder(t.order)
	}
	t.bounds = ts.SubtreeBounds(t.effDI)
	t.tiLen = 0
}

// Subindexes returns the current number of TI partitions.
func (t *PIMTree) Subindexes() int { return len(t.subs) }

// EffectiveDI returns the clamped insertion depth in use.
func (t *PIMTree) EffectiveDI() int { return t.effDI }

// Len returns TI+TS element count (including expired-but-unmerged elements).
func (t *PIMTree) Len() int { return t.tiLen + t.ts.Len() }

// TILen returns the mutable component size.
func (t *PIMTree) TILen() int { return t.tiLen }

// TSLen returns the immutable component size.
func (t *PIMTree) TSLen() int { return t.ts.Len() }

// MergeThreshold returns m*w in elements.
func (t *PIMTree) MergeThreshold() int { return t.threshold }

// route returns the subindex ordinal for key (Algorithm 1 lines 1–7:
// traverse TS's directory to depth DI).
func (t *PIMTree) route(key uint32) int {
	if len(t.subs) == 1 {
		return 0
	}
	return t.ts.RouteToDepth(key, t.effDI)
}

// Insert adds p to the subindex its key routes to (Algorithm 1).
func (t *PIMTree) Insert(p kv.Pair) { t.InsertAt(p, t.route(p.Key)) }

// TSToken names the TS a Locate ran against. It holds the TS itself, so it
// stays distinct from every later TS, of this tree or of a new tree built in
// its place, for as long as anyone holds the positions it vouches for.
type TSToken struct{ ts *cstree.Tree }

// Locate runs the TS descents of a batch's queries and inserts ahead of
// them, walking them through TS's directory together (see
// cstree.LowerBounds). The keys are the queries' lo bounds followed by the
// inserts' keys, and pos is as long as the queries: pos[j] is a query's
// lower bound in TS, and ords[j] every key's subindex. The positions hold
// until the next merge; Current tells.
func (t *PIMTree) Locate(keys []uint32, pos, ords []int) TSToken {
	t.ts.LowerBounds(keys, t.effDI, pos, ords)
	return TSToken{t.ts}
}

// Current reports whether positions located under tok still hold: TS has
// not been replaced since.
func (t *PIMTree) Current(tok TSToken) bool { return tok.ts == t.ts }

// InsertAt is Insert into subindex i, as Locate found it for p.Key.
func (t *PIMTree) InsertAt(p kv.Pair, i int) {
	t.subs[i].Insert(p)
	t.tiLen++
}

// NeedsMerge reports whether TI has reached the merge threshold.
func (t *PIMTree) NeedsMerge() bool { return t.tiLen >= t.threshold }

// QueryPairs emits every element with lo <= Key <= hi: the in-range run of
// the immutable component's leaf array, then per-leaf runs from the TI
// subindexes in key order. Results may include expired tuples; callers
// filter against the window. Runs alias index-owned storage and are only
// valid during the emit call. It returns true when emit refused a run.
//
// TS's directory is descended once: the walk that finds lo's lower bound
// also passes the depth-DI node whose ordinal is lo's subindex, so the TI
// scan starts there instead of routing lo a second time.
func (t *PIMTree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	start, stopped := t.ts.QueryPairsVia(lo, hi, t.effDI, emit)
	if stopped {
		return true
	}
	return t.queryTIPairs(start, lo, hi, emit)
}

// Query is QueryPairs one element at a time: the one per-element adapter
// left over the run walk. It is kept because the end-to-end benchmark's
// core.replay layer (e2ebench/layers.go) times its probes through it.
func (t *PIMTree) Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool) {
	return t.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		for _, p := range run {
			if !emit(p) {
				return false
			}
		}
		return true
	})
}

// QueryPairsAt is QueryPairs with lo's TS descent already done: pos and ord
// are what Locate found for lo.
func (t *PIMTree) QueryPairsAt(lo, hi uint32, pos, ord int, emit func([]kv.Pair) bool) (stopped bool) {
	if t.ts.QueryPairsFrom(pos, hi, emit) {
		return true
	}
	return t.queryTIPairs(ord, lo, hi, emit)
}

// queryTIPairs scans TI subindexes for [lo, hi] beginning at subindex start
// (the one lo routes to) and moving on to each successor while the range
// extends past the current partition (Algorithm 2 lines 16–39, without the
// locks). It returns true when emit refused a run.
func (t *PIMTree) queryTIPairs(start int, lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	for i := start; ; i++ {
		if stopped, more := t.scanSubPairs(i, lo, hi, emit); !more {
			return stopped
		}
	}
}

// scanSubPairs emits subindex i's part of [lo, hi] in per-leaf runs. Every
// key in a successor of lo's subindex routes past lo, so the same lo bound
// starts each subindex's walk at its first element. The per-subindex scans
// are range-bounded B+-tree walks, so a refusal and range exhaustion are
// told apart by the return value alone and no bounds-checking closure is
// allocated. more reports that the scan goes on into subindex i+1: emit did
// not stop it, this is not the last partition, and hi lies past the
// partition's bound (an exhausted range implies hi <= bounds[i]).
func (t *PIMTree) scanSubPairs(i int, lo, hi uint32, emit func([]kv.Pair) bool) (stopped, more bool) {
	stopped = t.subs[i].QueryPairs(lo, hi, emit)
	return stopped, !stopped && i < len(t.subs)-1 && hi > t.bounds[i]
}

// snapshotTI concatenates all subindexes' sorted contents, a leaf run at a
// time. Because subindex ranges are disjoint and ordered, concatenation
// yields a sorted run without a k-way merge.
func (t *PIMTree) snapshotTI() []kv.Pair {
	out := make([]kv.Pair, 0, t.tiLen)
	for _, s := range t.subs {
		s.QueryPairs(0, math.MaxUint32, func(run []kv.Pair) bool {
			out = append(out, run...)
			return true
		})
	}
	return out
}

// MergeInPlace merges TI into TS, discarding non-live elements, and
// reinitializes the subindexes (the single-threaded / blocking merge). A
// caller that knows how many elements live keeps passes that count as
// survivors, and the new TS is sized to it (see kv.MergeFiltered); otherwise
// it reserves room for all of TS and TI.
func (t *PIMTree) MergeInPlace(live func(kv.Pair) bool, survivors ...int) time.Duration {
	start := time.Now()
	run := kv.MergeFiltered(t.ts.Leaves(), t.snapshotTI(), live, mergeCap(survivors))
	t.lastBufferCap = cap(run) * kv.PairBytes
	t.install(cstree.Build(run, t.cfg.CSTree))
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

// BuildMerged constructs a brand-new PIM-Tree containing the merged, filtered
// content, leaving the receiver untouched. This is phase 1 of the
// non-blocking merge (Section 4.2): the old tree keeps serving lock-free
// searches while the new one is built.
func (t *PIMTree) BuildMerged(live func(kv.Pair) bool) (*PIMTree, time.Duration) {
	start := time.Now()
	run := kv.MergeFiltered(t.ts.Leaves(), t.snapshotTI(), live, math.MaxInt)
	nt := &PIMTree{
		threshold: t.threshold,
		di:        t.di,
		cfg:       t.cfg,
		order:     t.order,
	}
	nt.install(cstree.Build(run, t.cfg.CSTree))
	nt.lastBufferCap = cap(run) * kv.PairBytes
	nt.merges = t.merges + 1
	nt.mergeTime = t.mergeTime + time.Since(start)
	return nt, time.Since(start)
}

// Merges returns the number of merges performed and their cumulative time.
func (t *PIMTree) Merges() (int, time.Duration) { return t.merges, t.mergeTime }

// MemoryStats describes component footprints for Figure 11a.
type MemoryStats struct {
	TSLeafBytes  int
	TSInnerBytes int
	TIBytes      int
	BufferBytes  int // merge buffer (the extra space of Figure 11a)
}

// Memory reports the tree's footprint for Figure 11a.
func (t *PIMTree) Memory() MemoryStats {
	tsm := t.ts.Memory()
	ti := 0
	for _, s := range t.subs {
		m := s.Memory()
		ti += m.LeafBytes + m.InnerBytes
	}
	return MemoryStats{
		TSLeafBytes:  tsm.LeafBytes,
		TSInnerBytes: tsm.InnerBytes,
		TIBytes:      ti,
		BufferBytes:  t.lastBufferCap,
	}
}

// CheckInvariants validates partition routing: every TI element must reside
// in the subindex its key routes to, and subindex contents must respect the
// partition bounds. Test helper; not for hot paths.
func (t *PIMTree) CheckInvariants() error {
	total := 0
	for i, s := range t.subs {
		var err error
		s.QueryPairs(0, math.MaxUint32, func(run []kv.Pair) bool {
			total += len(run)
			for _, p := range run {
				if got := t.route(p.Key); got != i {
					err = fmt.Errorf("core: element %v in subindex %d routes to %d", p, i, got)
					return false
				}
				if p.Key > t.bounds[i] {
					err = fmt.Errorf("core: element %v exceeds bound %d of subindex %d", p, t.bounds[i], i)
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	if total != t.tiLen {
		return fmt.Errorf("core: tiLen %d but %d elements in subindexes", t.tiLen, total)
	}
	return nil
}
