package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/cstree"
	"pimtree/internal/kv"
)

// DefaultInsertionDepth is DI in the paper; Figure 8c/d find 2 a good
// default for single-threaded use and >= 2 necessary for parallel use.
const DefaultInsertionDepth = 2

// PIMTreeConfig configures a PIM-Tree.
type PIMTreeConfig struct {
	// MergeRatio is m; zero selects DefaultMergeRatio. The paper sets m=1
	// for multithreaded runs (Figure 9a).
	MergeRatio float64
	// InsertionDepth is DI, the TS depth whose nodes anchor the subindexes
	// (root = depth 0). Clamped to the feasible range at every merge.
	// Zero selects DefaultInsertionDepth.
	InsertionDepth int
	// BTreeOrder is the node capacity of the subindex B+-Trees.
	BTreeOrder int
	// CSTree configures the immutable component.
	CSTree cstree.Config
	// SingleLock, when true, guards all subindexes with one mutex instead
	// of per-subindex mutexes. It exists only for the lock-granularity
	// ablation bench; the paper's design is per-subindex locking.
	SingleLock bool
	// NoLocks disables all locking. Only valid for strictly single-threaded
	// use; it is the "without concurrency control" baseline of Figure 12a.
	NoLocks bool
}

// subindex is one Bi: an independent B+-Tree guarded by its own mutex
// (Section 3.3.3). The pad keeps neighbouring locks off one cache line.
type subindex struct {
	mu sync.Mutex
	bt *btree.Tree
	_  [40]byte
}

// PIMTree is the Partitioned In-memory Merge-Tree of Section 3.3. TS
// traversal is lock-free (immutable); each TI subindex is protected by its
// own mutex; cross-subindex leaf scans hand locks over in ascending order
// (Algorithm 2).
type PIMTree struct {
	w         int
	threshold int
	di        int
	cfg       PIMTreeConfig
	order     int

	ts     *cstree.Tree
	subs   []*subindex
	bounds []uint32 // bounds[i]: largest key routed to subindex i
	effDI  int      // clamped insertion depth used for routing

	tiLen        atomic.Int64
	insertCounts []atomic.Int64 // per-subindex inserts since last reset (Fig 13a)

	merges        int
	mergeTime     time.Duration
	lastBufferCap int

	globalMu sync.Mutex // used only when cfg.SingleLock is set
}

// NewPIMTree returns an empty PIM-Tree for a window of length w.
func NewPIMTree(w int, cfg PIMTreeConfig) *PIMTree {
	if w <= 0 {
		panic(fmt.Sprintf("core: window %d must be positive", w))
	}
	m := IMTreeConfig{MergeRatio: cfg.MergeRatio}.ratio()
	threshold := int(m * float64(w))
	if threshold < 1 {
		threshold = 1
	}
	di := cfg.InsertionDepth
	if di == 0 {
		di = DefaultInsertionDepth
	}
	if di < 0 {
		panic(fmt.Sprintf("core: insertion depth %d must be >= 0", di))
	}
	order := cfg.BTreeOrder
	if order == 0 {
		order = btree.DefaultOrder
	}
	t := &PIMTree{
		w:         w,
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
	t.subs = make([]*subindex, n)
	for i := range t.subs {
		t.subs[i] = &subindex{bt: btree.NewOrder(t.order)}
	}
	t.bounds = ts.SubtreeBounds(t.effDI)
	t.insertCounts = make([]atomic.Int64, n)
	t.tiLen.Store(0)
}

// W returns the window length the tree was sized for.
func (t *PIMTree) W() int { return t.w }

// Subindexes returns the current number of TI partitions.
func (t *PIMTree) Subindexes() int { return len(t.subs) }

// EffectiveDI returns the clamped insertion depth in use.
func (t *PIMTree) EffectiveDI() int { return t.effDI }

// Len returns TI+TS element count (including expired-but-unmerged elements).
func (t *PIMTree) Len() int { return int(t.tiLen.Load()) + t.ts.Len() }

// TILen returns the mutable component size.
func (t *PIMTree) TILen() int { return int(t.tiLen.Load()) }

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

// lock/unlock indirect through the ablation and no-CC switches.
func (t *PIMTree) lock(i int) {
	switch {
	case t.cfg.NoLocks:
	case t.cfg.SingleLock:
		t.globalMu.Lock()
	default:
		t.subs[i].mu.Lock()
	}
}

func (t *PIMTree) unlock(i int) {
	switch {
	case t.cfg.NoLocks:
	case t.cfg.SingleLock:
		t.globalMu.Unlock()
	default:
		t.subs[i].mu.Unlock()
	}
}

// Insert adds p to its subindex under the subindex lock (Algorithm 1).
// Safe for concurrent use.
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
	t.lock(i)
	t.subs[i].bt.Insert(p)
	t.unlock(i)
	t.tiLen.Add(1)
	t.insertCounts[i].Add(1)
}

// NeedsMerge reports whether TI has reached the merge threshold.
func (t *PIMTree) NeedsMerge() bool { return t.tiLen.Load() >= int64(t.threshold) }

// Query emits every element with lo <= Key <= hi: the immutable component
// lock-free, then the matching TI subindexes under handed-over locks
// (Algorithm 2). Safe for concurrent use with Insert. Results may include
// expired tuples; callers filter against the window.
//
// TS's directory is descended once: the walk that finds lo's lower bound
// also passes the depth-DI node whose ordinal is lo's subindex, so the TI
// scan starts there instead of routing lo a second time.
func (t *PIMTree) Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool) {
	start, stopped := t.ts.QueryVia(lo, hi, t.effDI, emit)
	if stopped {
		return true
	}
	return t.queryTI(start, lo, hi, emit)
}

// QueryPairs is the columnar form of Query: contiguous in-range runs from
// the immutable component's leaf array, then per-leaf runs from the TI
// subindexes under the same lock-handoff protocol as queryTI. Slices alias
// index-owned storage and are only valid during the emit call (for TI, only
// while the emitting subindex's lock is held — emit must consume, not
// retain). Returns true when emit asked to stop early.
func (t *PIMTree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	start, stopped := t.ts.QueryPairsVia(lo, hi, t.effDI, emit)
	if stopped {
		return true
	}
	return t.queryTIPairs(start, lo, hi, emit)
}

// QueryPairsAt is QueryPairs with lo's TS descent already done: pos and ord
// are what Locate found for lo.
func (t *PIMTree) QueryPairsAt(lo, hi uint32, pos, ord int, emit func([]kv.Pair) bool) (stopped bool) {
	if t.ts.QueryPairsFrom(pos, hi, emit) {
		return true
	}
	return t.queryTIPairs(ord, lo, hi, emit)
}

// queryTI scans TI subindexes for [lo, hi] beginning at subindex start (the
// one lo routes to), moving from a subindex to its successor with lock
// handoff when the scan crosses the partition boundary (Algorithm 2 lines
// 16–39). The per-subindex scans are range-bounded B+-tree walks
// (QueryFrom/Query), so an emit refusal and range exhaustion are
// distinguished by the return value alone — no bounds-checking closure is
// allocated. Returns true when emit asked to stop early.
func (t *PIMTree) queryTI(start int, lo, hi uint32, emit func(kv.Pair) bool) (stopped bool) {
	i := start
	t.lock(i)
	for {
		if i == start {
			stopped = t.subs[i].bt.QueryFrom(kv.Pair{Key: lo}, hi, emit)
		} else {
			// Successor subindexes are scanned from their first element.
			stopped = t.subs[i].bt.Query(0, hi, emit)
		}
		// Stop when the caller asked to, the range cannot extend past this
		// partition's bound, or this is the last partition; otherwise hand
		// the lock to the successor (acquire-then-release, Algorithm 2 lines
		// 28–30). Range exhaustion inside a subindex need not be signalled
		// separately: an exhausted [lo, hi] implies hi <= bounds[i] ends the
		// walk here anyway, and an exhausted subindex just hands over.
		if stopped || i >= len(t.subs)-1 || hi <= t.bounds[i] {
			t.unlock(i)
			return stopped
		}
		if t.cfg.SingleLock || t.cfg.NoLocks {
			i++
			continue
		}
		t.subs[i+1].mu.Lock()
		t.subs[i].mu.Unlock()
		i++
	}
}

// queryTIPairs is the columnar queryTI: identical traversal and locking,
// with per-leaf contiguous emission.
func (t *PIMTree) queryTIPairs(start int, lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	i := start
	t.lock(i)
	for {
		if i == start {
			stopped = t.subs[i].bt.QueryFromPairs(kv.Pair{Key: lo}, hi, emit)
		} else {
			stopped = t.subs[i].bt.QueryPairs(0, hi, emit)
		}
		if stopped || i >= len(t.subs)-1 || hi <= t.bounds[i] {
			t.unlock(i)
			return stopped
		}
		if t.cfg.SingleLock || t.cfg.NoLocks {
			i++
			continue
		}
		t.subs[i+1].mu.Lock()
		t.subs[i].mu.Unlock()
		i++
	}
}

// QueryTS searches only the immutable component.
func (t *PIMTree) QueryTS(lo, hi uint32, emit func(kv.Pair) bool) {
	t.ts.Query(lo, hi, emit)
}

// QueryTI searches only the mutable component. With no TS scan to share a
// descent with, it routes lo on its own.
func (t *PIMTree) QueryTI(lo, hi uint32, emit func(kv.Pair) bool) {
	t.queryTI(t.route(lo), lo, hi, emit)
}

// snapshotTI concatenates all subindexes' sorted contents. Because subindex
// ranges are disjoint and ordered, concatenation yields a sorted run without
// a k-way merge. Callers must ensure no concurrent updates (the merge
// protocols do).
func (t *PIMTree) snapshotTI() []kv.Pair {
	out := make([]kv.Pair, 0, t.tiLen.Load())
	for _, s := range t.subs {
		s.bt.Scan(func(p kv.Pair) bool {
			out = append(out, p)
			return true
		})
	}
	return out
}

// MergeInPlace merges TI into TS, discarding non-live elements, and
// reinitializes the subindexes (the single-threaded / blocking merge). It
// must not run concurrently with Insert or Query. A caller that knows how
// many elements live keeps passes that count as survivors, and the new TS is
// sized to it (see kv.MergeFiltered); otherwise it reserves room for all of
// TS and TI.
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

// BuildMerged constructs a brand-new PIM-Tree containing the merged, filtered
// content, leaving the receiver untouched. This is phase 1 of the
// non-blocking merge (Section 4.2): the old tree keeps serving lock-free
// searches while the new one is built. The caller must guarantee that no
// inserts run during the build (the join's task barrier does).
func (t *PIMTree) BuildMerged(live func(kv.Pair) bool) (*PIMTree, time.Duration) {
	start := time.Now()
	run := kv.MergeFiltered(t.ts.Leaves(), t.snapshotTI(), live, math.MaxInt)
	nt := &PIMTree{
		w:         t.w,
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

// InsertCounts returns per-subindex insert counters accumulated since the
// last install/reset — the data behind Figure 13a.
func (t *PIMTree) InsertCounts() []int64 {
	out := make([]int64, len(t.insertCounts))
	for i := range out {
		out[i] = t.insertCounts[i].Load()
	}
	return out
}

// ResetInsertCounts zeroes the per-subindex counters.
func (t *PIMTree) ResetInsertCounts() {
	for i := range t.insertCounts {
		t.insertCounts[i].Store(0)
	}
}

// Memory reports the PIM-Tree footprint for Figure 11a.
func (t *PIMTree) Memory() MemoryStats {
	tsm := t.ts.Memory()
	ti := 0
	for _, s := range t.subs {
		m := s.bt.Memory()
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
		s.bt.Scan(func(p kv.Pair) bool {
			total++
			if got := t.route(p.Key); got != i {
				err = fmt.Errorf("core: element %v in subindex %d routes to %d", p, i, got)
				return false
			}
			if p.Key > t.bounds[i] {
				err = fmt.Errorf("core: element %v exceeds bound %d of subindex %d", p, t.bounds[i], i)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if err := s.bt.CheckInvariants(); err != nil {
			return err
		}
	}
	if total != int(t.tiLen.Load()) {
		return fmt.Errorf("core: tiLen %d but %d elements in subindexes", t.tiLen.Load(), total)
	}
	return nil
}
