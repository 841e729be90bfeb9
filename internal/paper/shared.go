// Package paper holds the runtimes only the paper's figures run: the
// parallel IBWJ over shared indexes (Section 4), with its concurrent window
// and the Bw-Tree baseline, and the round-robin partitioned joins of Section
// 2.2.3. The service's single-writer engines (internal/join's serial IBWJ,
// internal/shard) link none of it.
package paper

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/bwtree"
	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/metrics"
	"pimtree/internal/stream"
)

// SharedConfig configures the parallel IBWJ over shared indexes (Section 4):
// an arbitrary number of worker threads pull fixed-size tasks from a shared
// queue, search and update shared per-stream indexes, and propagate results
// in arrival order.
type SharedConfig struct {
	Threads  int       // worker goroutines (default 1)
	TaskSize int       // tuples per task acquisition (default 8, Figure 10c/d)
	WR, WS   int       // window lengths
	Band     join.Band // band predicate
	Self     bool      // self-join: one stream, one window, one index

	Index join.IndexKind     // join.IndexPIMTree or join.IndexBwTree
	PIM   core.PIMTreeConfig // PIM-Tree knobs (merge ratio, DI, ...)
	// SingleLock guards each PIM-Tree's subindexes with one mutex instead of
	// one each: the lock-granularity ablation.
	SingleLock bool

	// BlockingMerge switches the PIM-Tree maintenance from the two-phase
	// non-blocking merge of Section 4.2 to a stop-the-world merge
	// (the "blocking merge" series of Figure 13c).
	BlockingMerge bool

	Sink    join.MatchSink           // optional ordered result sink
	Latency *metrics.LatencyRecorder // optional latency sampling (Fig 10d)

	// ChunkTuples, when positive, records a timestamp every time that many
	// tuples have been propagated, yielding the throughput-over-time series
	// of Figure 13b in Stats.Chunks.
	ChunkTuples int
}

// tupleState is the per-tuple completion record, padded to a cache line so
// workers completing adjacent tuples do not false-share.
type tupleState struct {
	count     int64
	completed atomic.Bool
	_         [64 - 9]byte
}

// sharedRun is the state shared by all workers of one parallel join run.
//
// The arrival queue is a ring of capN slots indexed by global arrival
// position i at i%capN. RunShared sizes it to the whole input, so no slot is
// ever reused. All per-tuple bookkeeping arrays are rings of the same
// capacity, indexed the same way.
type sharedRun struct {
	cfg      SharedConfig
	capN     int
	arrivals []stream.Arrival
	wins     [2]*Window
	wlen     [2]uint64
	pim      [2]atomic.Pointer[core.SharedPIMTree]
	bw       [2]*bwtree.Tree

	// Task queue (Section 4.1). Admission to the windows happens at task
	// acquisition under mu, so queue order is arrival order. appended is the
	// number of arrivals published so far; nextAssign trails it.
	mu            sync.Mutex
	cond          *sync.Cond
	nextAssign    int
	appended      int
	closed        bool
	activeTasks   int
	assignBlocked bool
	indexUpdates  bool // false during merge phase 1

	// Per-tuple bookkeeping, ring-indexed by arrival position. Count and
	// completion flag live in one cache-line-padded slot per tuple: they
	// are written by the processing worker and read by the propagation
	// holder, and unpadded arrays of adjacent tuples (different workers)
	// false-share badly.
	tupleSeq  []uint64
	oppTL     []uint64 // opposite-window head at admission (tl snapshot)
	admitNano []int64
	state     []tupleState
	results   [][]uint64 // matched sequences, only when a sink is set

	// Ordered result propagation (try-lock protocol of Section 4.1).
	// routed mirrors appended for the lock-free propagation pass; propHead
	// is the retire frontier.
	routed   atomic.Int64
	propLock atomic.Bool
	propHead atomic.Int64
	matches  uint64 // owned by the propagation lock holder

	// Probe safety: workerTe[t][sid] is the smallest te of worker t's
	// current task against stream sid's window (maxUint64 when idle),
	// written under mu; assignment waits rather than overwrite a slot at or
	// past it (lapping). delCursor[sid] is the next sequence of stream sid
	// awaiting deletion from its Bw-Tree; workers claim sequences up to the
	// minimum published te so that no in-flight probe loses a window tuple
	// to a concurrent eager delete.
	workerTe  [][2]uint64
	delCursor [2]atomic.Uint64

	mergeFlag atomic.Bool
	merges    int
	mergeTime time.Duration

	chunkNanos []int64 // per-chunk completion times, owned by the propagation lock holder
	startNano  int64

	wg sync.WaitGroup
}

// backlogNum/backlogDen bound phase-1 admissions to w/4 unindexed tuples per
// window: every lookup linearly scans the unindexed region (Figure 6), so an
// unbounded backlog makes merge-phase processing quadratic. Stalling
// admission instead keeps the linear component proportional to the merge
// duration, matching the paper's observation that phase-1 scans merely
// "become more expensive".
const (
	backlogNum = 1
	backlogDen = 4
)

// BwWindowsFit reports whether count windows of length wr/ws can absorb the
// shared runtime's in-flight tuples under the Bw-Tree's eager deletes,
// returning the in-flight bound it computed.
func BwWindowsFit(threads, task, wr, ws int) (inflight int, ok bool) {
	inflight = threads*task + 64
	return inflight, wr > 2*inflight && ws > 2*inflight
}

// RunShared executes the parallel shared-index window join over the arrival
// sequence and returns its statistics. The ring is sized to the whole input,
// which is published before the workers are told the run is closed. Results
// are propagated in arrival order; the optional sink observes them in that
// order.
func RunShared(arrivals []stream.Arrival, cfg SharedConfig) join.Stats {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.TaskSize <= 0 {
		cfg.TaskSize = 8
	}
	if cfg.WR <= 0 {
		panic("paper: WR must be positive")
	}
	if cfg.Self {
		cfg.WS = cfg.WR
	}
	if cfg.WS <= 0 {
		panic("paper: WS must be positive")
	}
	inflight, windowsOK := BwWindowsFit(cfg.Threads, cfg.TaskSize, cfg.WR, cfg.WS)
	if cfg.Index == join.IndexBwTree && !windowsOK {
		panic(fmt.Sprintf("paper: windows (%d,%d) too small for %d in-flight tuples with eager deletes",
			cfg.WR, cfg.WS, inflight))
	}
	capacity := max(len(arrivals), 1)

	r := &sharedRun{
		cfg:      cfg,
		capN:     capacity,
		arrivals: make([]stream.Arrival, capacity),
		wlen:     [2]uint64{uint64(cfg.WR), uint64(cfg.WS)},
		tupleSeq: make([]uint64, capacity),
		oppTL:    make([]uint64, capacity),
		state:    make([]tupleState, capacity),
	}
	r.cond = sync.NewCond(&r.mu)
	r.indexUpdates = true
	r.workerTe = make([][2]uint64, cfg.Threads)
	for t := range r.workerTe {
		r.workerTe[t] = [2]uint64{^uint64(0), ^uint64(0)}
	}
	if cfg.Sink != nil {
		r.results = make([][]uint64, capacity)
	}
	if cfg.Latency != nil {
		r.admitNano = make([]int64, capacity)
	}
	r.wins[0] = NewWindow(cfg.WR, inflight)
	if cfg.Self {
		r.wins[1] = r.wins[0]
	} else {
		r.wins[1] = NewWindow(cfg.WS, inflight)
	}
	switch cfg.Index {
	case join.IndexPIMTree:
		r.pim[0].Store(core.NewSharedPIMTree(cfg.WR, cfg.PIM, cfg.SingleLock))
		if cfg.Self {
			r.pim[1].Store(r.pim[0].Load())
		} else {
			r.pim[1].Store(core.NewSharedPIMTree(cfg.WS, cfg.PIM, cfg.SingleLock))
		}
	case join.IndexBwTree:
		r.bw[0] = bwtree.New(cfg.WR, bwtree.Config{})
		if cfg.Self {
			r.bw[1] = r.bw[0]
		} else {
			r.bw[1] = bwtree.New(cfg.WS, bwtree.Config{})
		}
	default:
		panic("paper: shared join supports PIM-Tree and Bw-Tree indexes")
	}

	start := time.Now()
	r.startNano = start.UnixNano()
	for t := 0; t < cfg.Threads; t++ {
		r.wg.Add(1)
		go func(id int) {
			defer r.wg.Done()
			r.worker(id)
		}(t)
	}

	r.mu.Lock()
	copy(r.arrivals, arrivals)
	r.appended = len(arrivals)
	r.routed.Store(int64(r.appended))
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
	// Drain any results the last workers could not propagate.
	r.propagate(time.Now().UnixNano())

	st := join.Stats{
		Tuples:    r.appended,
		Matches:   r.matches,
		Elapsed:   time.Since(start),
		Merges:    r.merges,
		MergeTime: r.mergeTime,
	}
	if cfg.Latency != nil {
		st.Latency = cfg.Latency.Summarize()
	}
	if cfg.ChunkTuples > 0 {
		prev := r.startNano
		for _, nano := range r.chunkNanos {
			st.Chunks = append(st.Chunks, join.ChunkStat{
				Tuples: cfg.ChunkTuples,
				Mtps:   metrics.Mtps(cfg.ChunkTuples, time.Duration(nano-prev)),
			})
			prev = nano
		}
	}
	return st
}

// streamID maps an arrival's stream to a window/index slot (self-joins fold
// everything onto slot 0).
func (r *sharedRun) streamID(s uint8) uint8 {
	if r.cfg.Self {
		return 0
	}
	return s
}

func (r *sharedRun) oppositeID(s uint8) uint8 {
	if r.cfg.Self {
		return 0
	}
	return 1 - s
}

// backlogExceeded reports whether a window's unindexed region has outgrown
// the admission bound (only reachable during merge phase 1).
func (r *sharedRun) backlogExceeded() bool {
	for i := 0; i < 2; i++ {
		if r.wins[i].Backlog() > backlogNum*r.wlen[i]/backlogDen {
			return true
		}
	}
	return false
}

// lapping reports whether one more task could overwrite a window slot that
// an active task still reads (seq >= its published te): a worker descheduled
// mid-task must not be lapped by a whole ring. Called under mu.
func (r *sharedRun) lapping() bool {
	for _, te := range r.workerTe {
		for sid, win := range r.wins {
			if te[sid] != ^uint64(0) && win.Head()+uint64(r.cfg.TaskSize) >= te[sid]+uint64(win.Capacity()) {
				return true
			}
		}
	}
	return false
}

// acquire implements task acquisition (Section 4.1): take the next TaskSize
// tuples from the queue, admit them into their windows (recording the tl
// snapshot per tuple), publish the task's window boundaries for
// delete-safety, and mark the task active. Blocks while the queue is empty
// and the session is still open; returns lo >= hi once it is closed and
// fully assigned.
func (r *sharedRun) acquire(worker int) (lo, hi int, updates bool, admitNano int64) {
	r.mu.Lock()
	for {
		if r.nextAssign < r.appended {
			if r.assignBlocked || (!r.indexUpdates && r.backlogExceeded()) || r.lapping() {
				r.cond.Wait()
				continue
			}
			break
		}
		if r.closed {
			r.mu.Unlock()
			return 0, 0, false, 0
		}
		r.cond.Wait()
	}
	lo = r.nextAssign
	hi = lo + r.cfg.TaskSize
	if hi > r.appended {
		hi = r.appended
	}
	r.nextAssign = hi
	r.activeTasks++
	updates = r.indexUpdates
	if r.admitNano != nil {
		admitNano = time.Now().UnixNano()
	}
	for i := lo; i < hi; i++ {
		slot := i % r.capN
		a := r.arrivals[slot]
		oppID := r.oppositeID(a.Stream)
		own := r.wins[r.streamID(a.Stream)]
		opp := r.wins[oppID]
		// tl snapshot before this tuple is published: for self-joins this
		// excludes the tuple itself from its own result set.
		tl := opp.Head()
		r.oppTL[slot] = tl
		_, seq := own.Append(a.Key)
		r.tupleSeq[slot] = seq
		if r.admitNano != nil {
			r.admitNano[slot] = admitNano
		}
		// Publish this probe's te so no concurrent eager delete removes a
		// tuple still inside its window (smallest te per stream wins).
		te := uint64(0)
		if tl > r.wlen[oppID] {
			te = tl - r.wlen[oppID]
		}
		if te < r.workerTe[worker][oppID] {
			r.workerTe[worker][oppID] = te
		}
	}
	r.mu.Unlock()
	return lo, hi, updates, admitNano
}

// finishTask retires an active task, clears its published window boundaries,
// computes the safe eager-delete bounds, and wakes a merge coordinator
// waiting for the drain barrier. The returned bounds are the exclusive
// per-stream sequence limits up to which expired tuples may be deleted.
func (r *sharedRun) finishTask(worker int) (bounds [2]uint64) {
	r.mu.Lock()
	r.workerTe[worker] = [2]uint64{^uint64(0), ^uint64(0)}
	if r.cfg.Index == join.IndexBwTree {
		for sid := 0; sid < 2; sid++ {
			head := r.wins[sid].Head()
			if head <= r.wlen[sid] {
				bounds[sid] = 0
				continue
			}
			b := head - r.wlen[sid]
			for t := range r.workerTe {
				if te := r.workerTe[t][sid]; te < b {
					b = te
				}
			}
			bounds[sid] = b
		}
	}
	r.activeTasks--
	// Wakes a merge barrier once the last task drains, and assigners that
	// lapping held back.
	r.cond.Broadcast()
	r.mu.Unlock()
	return bounds
}

// expireBw claims and deletes expired tuples of stream sid up to bound
// (exclusive). Claims go through an atomic cursor so each expired tuple is
// deleted exactly once across workers.
func (r *sharedRun) expireBw(sid int, bound uint64) {
	win := r.wins[sid]
	for {
		c := r.delCursor[sid].Load()
		if c >= bound {
			return
		}
		if !r.delCursor[sid].CompareAndSwap(c, c+1) {
			continue
		}
		r.bw[sid].Delete(kv.Pair{Key: win.KeyAt(c), Ref: win.RefOf(c)})
	}
}

// worker is the main loop of Section 4.1: acquire, generate results, update
// the index, propagate, and volunteer for merging.
func (r *sharedRun) worker(id int) {
	ps := newProbeScratch(r)
	for {
		lo, hi, updates, _ := r.acquire(id)
		if lo >= hi {
			return
		}
		for i := lo; i < hi; i++ {
			r.process(ps, i)
			if updates {
				r.indexUpdate(i)
			}
			// Only now is the slot done being read.
			r.state[i%r.capN].completed.Store(true)
		}
		if updates {
			// Edge advancement amortized per task: tuples were marked
			// indexed individually, one guarded walk moves the edge past
			// all of them.
			r.wins[0].TryAdvanceEdge()
			if !r.cfg.Self {
				r.wins[1].TryAdvanceEdge()
			}
		}
		bounds := r.finishTask(id)
		if r.cfg.Index == join.IndexBwTree {
			for sid := 0; sid < 2; sid++ {
				if r.cfg.Self && sid == 1 {
					break
				}
				r.expireBw(sid, bounds[sid])
			}
		}
		r.propagate(time.Now().UnixNano())
		r.maybeMerge()
	}
}

// queryPairs walks stream sid's index over [lo, hi]: candidates arrive as
// contiguous []kv.Pair runs aliasing index-owned storage, valid during emit
// only.
func (r *sharedRun) queryPairs(sid uint8, lo, hi uint32, emit func([]kv.Pair) bool) {
	if r.cfg.Index == join.IndexPIMTree {
		r.pim[sid].Load().QueryPairs(lo, hi, emit)
		return
	}
	r.bw[sid].QueryPairs(lo, hi, emit)
}

// probeScratch is one worker's reusable probe state: the per-tuple probe
// parameters live in fields and the two emit callbacks are built once per
// worker, so process never materializes an escaping closure.
type probeScratch struct {
	r        *sharedRun
	opp      *Window
	lo, hi   uint32
	te, tl   uint64
	edge     uint64
	collect  bool
	count    int64
	matched  []uint64
	emitRun  func([]kv.Pair) bool
	emitScan func(key uint32, seq uint64) bool
}

func newProbeScratch(r *sharedRun) *probeScratch {
	ps := &probeScratch{r: r}
	ps.emitRun = ps.indexHits
	ps.emitScan = ps.scanHit
	return ps
}

// indexHits consumes one contiguous candidate run of the index part:
// entries strictly before the edge snapshot (later ones are covered by the
// linear scan, avoiding duplicates) and inside [te, tl) (window filtering
// of expired or too-new entries).
func (ps *probeScratch) indexHits(pairs []kv.Pair) bool {
	opp := ps.opp
	for _, p := range pairs {
		key2, seq2, ok := opp.Get(p.Ref)
		if ok && key2 == p.Key && seq2 >= ps.te && seq2 < ps.edge {
			ps.count++
			if ps.collect {
				ps.matched = append(ps.matched, seq2)
			}
		}
	}
	return true
}

// scanHit is the linear part's per-tuple callback over the non-indexed
// window region.
func (ps *probeScratch) scanHit(key uint32, seq uint64) bool {
	if key >= ps.lo && key <= ps.hi {
		ps.count++
		if ps.collect {
			ps.matched = append(ps.matched, seq)
		}
	}
	return true
}

// process implements result generation (Section 4.1): an index lookup
// restricted to sequence numbers before the edge snapshot, plus a linear
// window scan from the edge to the tl snapshot (Figure 6).
func (r *sharedRun) process(ps *probeScratch, i int) {
	slot := i % r.capN
	a := r.arrivals[slot]
	oppID := r.oppositeID(a.Stream)
	opp := r.wins[oppID]
	oppW := r.wlen[oppID]
	lo, hi := r.cfg.Band.Range(a.Key)
	tl := r.oppTL[slot]
	te := uint64(0)
	if tl > oppW {
		te = tl - oppW
	}
	edgeSnap := opp.Edge()
	if edgeSnap > tl {
		edgeSnap = tl
	}

	ps.opp = opp
	ps.lo, ps.hi = lo, hi
	ps.te, ps.tl = te, tl
	ps.edge = edgeSnap
	ps.count = 0
	ps.collect = r.results != nil

	// Index part.
	r.queryPairs(oppID, lo, hi, ps.emitRun)
	// Linear part: the non-indexed window region.
	from := edgeSnap
	if from < te {
		from = te
	}
	opp.ScanRange(from, tl, ps.emitScan)

	r.state[slot].count = ps.count
	if ps.collect {
		r.results[slot] = ps.matched
		ps.matched = nil
	}
	// completed is NOT set here: the worker loop sets it once indexUpdate
	// is done with the slot.
}

// indexUpdate implements step 3 (Section 4.1): insert the tuple into its
// stream's index, mark it indexed, and try to advance the edge tuple.
// Eager deletes for the Bw-Tree are batched per task in expireBw, bounded by
// the smallest active window boundary so in-flight probes never lose tuples.
func (r *sharedRun) indexUpdate(i int) {
	slot := i % r.capN
	a := r.arrivals[slot]
	sid := r.streamID(a.Stream)
	own := r.wins[sid]
	seq := r.tupleSeq[slot]
	p := kv.Pair{Key: a.Key, Ref: own.RefOf(seq)}
	if r.cfg.Index == join.IndexPIMTree {
		r.pim[sid].Load().Insert(p)
	} else {
		r.bw[sid].Insert(p)
	}
	own.MarkIndexed(seq)
}

// propagate implements ordered result propagation (Section 4.1): under a
// try-lock, flush the results of every completed tuple at the queue head in
// arrival order. After releasing the lock it re-checks the head: a worker
// whose completion lost the try-lock race while this holder was mid-pass
// must not strand its tuple, so the holder loops until the head is
// incomplete (Go's sequentially consistent atomics make the re-check sound).
func (r *sharedRun) propagate(nowNano int64) {
	for {
		if !r.propLock.CompareAndSwap(false, true) {
			return
		}
		routed := int(r.routed.Load())
		head := int(r.propHead.Load())
		advanced := false
		for head < routed && r.state[head%r.capN].completed.Load() {
			h := head % r.capN
			r.matches += uint64(r.state[h].count)
			if r.cfg.Sink != nil {
				a := r.arrivals[h]
				for _, mseq := range r.results[h] {
					r.cfg.Sink(a.Stream, r.tupleSeq[h], mseq)
				}
			}
			if r.cfg.Latency != nil {
				// The caller's timestamp predates the loop; a tuple admitted
				// after it can complete and reach the head within this same
				// propagation pass. Refresh the clock instead of recording a
				// negative latency.
				if r.admitNano[h] > nowNano {
					nowNano = time.Now().UnixNano()
				}
				r.cfg.Latency.Record(time.Duration(nowNano - r.admitNano[h]))
			}
			head++
			advanced = true
			if r.cfg.ChunkTuples > 0 && head%r.cfg.ChunkTuples == 0 {
				r.chunkNanos = append(r.chunkNanos, time.Now().UnixNano())
			}
		}
		if advanced {
			r.propHead.Store(int64(head))
		}
		r.propLock.Store(false)
		routed = int(r.routed.Load())
		if head >= routed || !r.state[head%r.capN].completed.Load() {
			return
		}
	}
}

// maybeMerge volunteers this worker as the merging thread when a PIM-Tree
// needs maintenance (Section 4.2).
func (r *sharedRun) maybeMerge() {
	if r.cfg.Index != join.IndexPIMTree {
		return
	}
	for sid := 0; sid < 2; sid++ {
		if r.cfg.Self && sid == 1 {
			break
		}
		if !r.pim[sid].Load().NeedsMerge() {
			continue
		}
		if !r.mergeFlag.CompareAndSwap(false, true) {
			return // someone else is merging
		}
		if r.pim[sid].Load().NeedsMerge() { // re-check under the flag
			if r.cfg.BlockingMerge {
				r.blockingMerge(sid)
			} else {
				r.nonblockingMerge(sid)
			}
		}
		r.mergeFlag.Store(false)
	}
}

// barrier blocks task assignment and waits until all active tasks drain,
// then runs fn while the queue is quiescent, and finally resumes assignment.
func (r *sharedRun) barrier(fn func()) {
	r.mu.Lock()
	r.assignBlocked = true
	for r.activeTasks > 0 {
		r.cond.Wait()
	}
	fn()
	r.assignBlocked = false
	r.cond.Broadcast()
	r.mu.Unlock()
}

// liveFn builds the merge liveness predicate for window slot sid: an index
// entry survives if its slot still holds the same tuple and that tuple is
// inside the window relative to the head snapshot.
func (r *sharedRun) liveFn(sid int) func(kv.Pair) bool {
	win := r.wins[sid]
	head := win.Head()
	w := r.wlen[sid]
	return func(p kv.Pair) bool {
		_, seq, ok := win.Get(p.Ref)
		return ok && seq < head && head-seq <= w
	}
}

// nonblockingMerge is the two-phase protocol of Section 4.2 and Figure 7.
func (r *sharedRun) nonblockingMerge(sid int) {
	start := time.Now()
	// Phase 1: drain active tasks, disable index updates, then build the
	// new PIM-Tree while workers keep joining without index updates.
	r.barrier(func() { r.indexUpdates = false })
	old := r.pim[sid].Load()
	newIdx, _ := old.BuildMerged(r.liveFn(sid))

	// Phase 2: drain again, swap the index in, re-enable updates, and
	// snapshot the pending (processed-but-unindexed) ranges.
	type pend struct{ lo, hi uint64 }
	var pending [2]pend
	r.barrier(func() {
		r.pim[sid].Store(newIdx)
		if r.cfg.Self {
			r.pim[1].Store(newIdx)
		}
		r.indexUpdates = true
		for wi := 0; wi < 2; wi++ {
			if r.cfg.Self && wi == 1 {
				break
			}
			// The edge may lag behind tuples that are already marked
			// indexed: a worker's TryAdvanceEdge returns without advancing
			// when another holds the guard, even if that holder's walk
			// already passed the newly marked slots. Replaying from a stale
			// edge would re-insert those tuples — they survived into the
			// merged tree — and duplicate index entries over-count matches.
			// Under the barrier the guard is free (workers only advance
			// while a task is active), so this walk lands the edge exactly
			// at the first unindexed tuple.
			r.wins[wi].TryAdvanceEdge()
			pending[wi] = pend{lo: r.wins[wi].Edge(), hi: r.wins[wi].Head()}
		}
	})
	// Apply pending updates concurrently with resumed workers.
	for wi := 0; wi < 2; wi++ {
		if r.cfg.Self && wi == 1 {
			break
		}
		win := r.wins[wi]
		for seq := pending[wi].lo; seq < pending[wi].hi; seq++ {
			p := kv.Pair{Key: win.KeyAt(seq), Ref: win.RefOf(seq)}
			if r.cfg.Index == join.IndexPIMTree {
				r.pim[wi].Load().Insert(p)
			}
			win.MarkIndexed(seq)
		}
		win.TryAdvanceEdge()
	}
	r.mu.Lock()
	r.merges++
	r.mergeTime += time.Since(start)
	r.mu.Unlock()
}

// blockingMerge stops the world for the duration of the merge (Figure 13c's
// "blocking merge" series).
func (r *sharedRun) blockingMerge(sid int) {
	start := time.Now()
	r.barrier(func() {
		old := r.pim[sid].Load()
		newIdx, _ := old.BuildMerged(r.liveFn(sid))
		r.pim[sid].Store(newIdx)
		if r.cfg.Self {
			r.pim[1].Store(newIdx)
		}
	})
	r.mu.Lock()
	r.merges++
	r.mergeTime += time.Since(start)
	r.mu.Unlock()
}
