// Package shard implements the key-range sharded parallel join runtime: a
// Router deals the key domain to K shards — by default in narrow stripes,
// round-robin, or in K contiguous ranges under an explicit partitioner —
// each owned by an independent single-writer join engine fed by a batched
// FIFO of routed commands, and an order-preserving merge stage re-sequences
// the per-shard match output into global arrival order.
//
// Compared to the paper's shared-index runtime (internal/paper.RunShared),
// sharding removes all index-level synchronization: a shard's index is
// touched only by its own goroutine. The price is routing — every tuple is
// sent to its owner shard, and a band probe whose interval
// [key-Diff, key+Diff] straddles a stripe or range edge fans out to the
// owner of each piece it touches (at most two shards whenever Diff is
// smaller than the stripe width, which the default guarantees when it
// stripes at all).
//
// Exactness: ops reach each shard in global arrival order, and probes carry
// the [te, tl) global-sequence window captured at admission, so the sharded
// join produces the identical match multiset as the single-threaded IBWJ on
// the same input regardless of batch size, shard count, or scheduling.
//
// The runtime is three parts, each written once and embedded by its hosts:
// Sequencer (global sequence heads, probe windows, eviction watermarks), pool
// (the single-writer engines, their batched FIFO lanes and workers), and
// FanIn (the in-flight completion ring and the ordered merge stage).
// Router = Sequencer + pool + FanIn, plus the reorder buffer, the reshape
// epochs, and the WAL. Member = pool + FanIn, applying ops a remote Sequencer
// numbered. cluster.Frontend = Sequencer + FanIn over a node transport in
// place of the pool.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/ooo"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// Config configures a sharded join run.
type Config struct {
	Shards    int // shard count (default GOMAXPROCS); ignored when Part is set
	BatchSize int // routed ops per shard batch (default 64); see FlushIdle

	WR, WS int       // window lengths (WS ignored for self-joins)
	Self   bool      // self-join: one stream, one window per shard
	Band   join.Band // band predicate

	// Index is the per-shard index backend, built by join.NewIndex; the zero
	// value is join.IndexBTree.
	Index join.IndexKind
	PIM   core.PIMTreeConfig // PIM-Tree and IM-Tree knobs

	// Part overrides the default, a RangePartitioner that deals stripes at
	// least 256 bands wide to the shards round-robin, so a hot key band
	// loads every shard; use a QuantilePartitioner for a static skew
	// narrower than one stripe. Must be monotone (see Partitioner).
	Part Partitioner

	// Timed switches the runtime to time-based windows: arrivals enter via
	// PushTimed, carry event timestamps, expire by Span instead of window
	// position, and are admitted through a bounded reorder buffer that
	// tolerates event-time disorder up to Slack (late tuples follow Late /
	// OnLate). WR/WS are ignored; MaxLive, the typical number of live tuples
	// per window, stands in for the window length in the index merge
	// threshold. It does not bound the stores, which grow with what is live.
	Timed   bool
	Span    uint64 // timed: window duration in timestamp units (required)
	MaxLive int    // timed: typical live tuples per window (required)
	Slack   uint64 // timed: tolerated event-time disorder
	Late    ooo.Policy
	OnLate  func(t ooo.Tuple, lateness uint64)

	Sink join.MatchSink // optional ordered result sink

	// WAL, when non-nil, makes the window state durable: every shard worker
	// appends each applied insert to its own log lane, Drain becomes a
	// durability barrier (watermark record + fsync on every lane), and —
	// with SnapshotEvery > 0 — the router writes a compacting snapshot of
	// the live window every SnapshotEvery routed arrivals, rotating all
	// lanes at a drain barrier and pruning the segments the snapshot
	// obsoletes. Restore replays a recovered state into a fresh router.
	WAL *wal.Log
	// SnapshotEvery is the snapshot cadence in routed arrivals (0 disables
	// snapshots; the log then grows until Close). Ignored when WAL is nil.
	SnapshotEvery int
}

// defaultRouterCapacity sizes the in-flight ring when the caller does not.
const defaultRouterCapacity = 1 << 14

// Router is the front end of the sharded runtime: a Sequencer numbers each
// arrival, the pool's shard workers apply the routed ops, and the FanIn
// releases their matches to the sink in global arrival order. Push routes
// arrivals into per-shard batches; FlushIdle, called once at the end of a
// producer call, ships the partial batches whose worker would otherwise go
// idle; Drain quiesces the shards mid-session; Close drains them and returns
// the run's statistics. Push, FlushIdle, Drain, and Close must be called from
// one goroutine; the sink runs concurrently on shard goroutines.
//
// Pushing more than the ring capacity ahead of the ordered-propagation
// frontier flushes the pending batches and blocks until the merge stage
// catches up — the runtime's backpressure.
type Router struct {
	Sequencer
	pool
	FanIn

	cfg  Config
	part Partitioner

	// Per-arrival probe identity for the sink, ring-indexed like the FanIn.
	probeStream []uint8
	probeSeq    []uint64
	// probeRouted counts probe ops enqueued per shard (router-goroutine
	// only) — the observable for fan-out tests and skew diagnostics.
	probeRouted []int

	moved atomic.Int64 // tuples that changed shards across all reshape epochs

	// snapMu guards the identity of the per-shard slices (engines, chans,
	// qhw) across reshape epochs: LoadSnapshot readers take the read side
	// from arbitrary goroutines while reshard swaps the slices under the
	// write side. The router's own accesses need no lock — Reshape runs on
	// the producer-serialized path, like every other mutation.
	snapMu   sync.RWMutex
	reshapes atomic.Int64 // applied reshape epochs (read live by Tuning scrapers)

	// baseMerges/baseMergeTime bank the merge statistics of engine sets
	// retired by reshard, so Close's totals survive the rebuild.
	baseMerges    int
	baseMergeTime time.Duration

	// Timed-mode admission: the reorder buffer in front of routing. Nil for
	// count windows.
	reorder *ooo.Reorderer

	// Durability state (nil/zero when cfg.WAL is nil). metaLane carries the
	// router's watermark records; lastSnap is the arrival index of the last
	// snapshot epoch. The per-shard lanes live in the pool.
	metaLane *wal.Lane
	lastSnap int
}

// NewRouter builds a sharded runtime whose in-flight ring holds capacity
// arrivals (<= 0 selects a default) and starts one worker goroutine per
// shard.
func NewRouter(cfg Config, capacity int) *Router {
	var span uint64 // stays zero (count windows) unless Timed
	if cfg.Timed {
		if cfg.Span == 0 {
			panic("shard: Span must be positive in timed mode")
		}
		if cfg.MaxLive <= 0 {
			panic("shard: MaxLive must be positive in timed mode")
		}
		// MaxLive plays the window-length role everywhere a count window
		// would be consulted: index sizing.
		cfg.WR, cfg.WS = cfg.MaxLive, cfg.MaxLive
		span = cfg.Span
	}
	if cfg.WR <= 0 {
		panic("shard: WR must be positive")
	}
	if cfg.Self {
		cfg.WS = cfg.WR
	}
	if cfg.WS <= 0 {
		panic("shard: WS must be positive")
	}
	if cfg.Part == nil {
		k := cfg.Shards
		if k <= 0 {
			k = runtime.GOMAXPROCS(0)
		}
		cfg.Part = newStripedPartitioner(k, cfg.Band.Diff)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if capacity <= 0 {
		capacity = defaultRouterCapacity
	}
	k := cfg.Part.Shards()
	r := &Router{
		Sequencer:   NewSequencer(cfg.WR, cfg.WS, cfg.Self, cfg.Band, span),
		cfg:         cfg,
		part:        cfg.Part,
		probeRouted: make([]int, k),
	}
	r.pool.fan, r.batchSize = &r.FanIn, cfg.BatchSize
	var emit func(int, [][]uint64)
	if cfg.Sink != nil {
		emit = r.emitSink
	}
	r.Init(r.flushAll, emit)
	r.resize(capacity, k)
	if cfg.Timed {
		r.reorder = ooo.New(cfg.Slack, cfg.Late, cfg.OnLate)
	}
	if cfg.WAL != nil {
		r.metaLane = cfg.WAL.NewLane()
	}
	r.start(newEngines(cfg, k))
	return r
}

// newEngines builds k empty engines with, when durability is on, a fresh WAL
// lane each.
func newEngines(cfg Config, k int) ([]*engine, []*wal.Lane) {
	engines := make([]*engine, k)
	lanes := make([]*wal.Lane, k)
	for s := range engines {
		engines[s] = newEngine(cfg)
		if cfg.WAL != nil {
			lanes[s] = cfg.WAL.NewLane()
		}
	}
	return engines, lanes
}

// resize replaces the in-flight ring with one of c slots, k buckets wide.
// Only legal behind the drain barrier with the ring empty (see FanIn.Resize).
func (r *Router) resize(c, k int) {
	r.Resize(c, k)
	r.probeStream = make([]uint8, c)
	r.probeSeq = make([]uint64, c)
}

// emitSink hands one retired arrival's matches to the sink.
func (r *Router) emitSink(slot int, buckets [][]uint64) {
	for _, bucket := range buckets {
		for _, mseq := range bucket {
			r.cfg.Sink(r.probeStream[slot], r.probeSeq[slot], mseq)
		}
	}
}

// Push routes one arrival. Blocks while the in-flight ring is full.
func (r *Router) Push(a stream.Arrival) {
	r.route(a.Stream, a.Key, 0)
	if r.cfg.WAL != nil {
		r.maybeWALSnapshot()
	}
}

// PushTimed admits one timed arrival to the reorder buffer (timed mode
// only). Event times may be disordered up to the configured Slack; tuples
// later than that follow the Late policy. Routing happens as the watermark
// (max observed timestamp - Slack) releases tuples in timestamp order, so a
// push may route zero or more tuples, and Drain/Close flush the remainder.
func (r *Router) PushTimed(s uint8, key uint32, ts uint64) {
	if r.reorder == nil {
		panic("shard: PushTimed on a count-window router")
	}
	r.reorder.Push(ooo.Tuple{Stream: s, Key: key, TS: ts}, r.routeTimed)
	if r.cfg.WAL != nil {
		r.maybeWALSnapshot()
	}
}

// routeTimed routes one watermark-released tuple. Released timestamps are
// non-decreasing, which is what makes the per-shard stores' ring eviction and
// the probes' seq < tl bound exact.
func (r *Router) routeTimed(t ooo.Tuple) { r.route(t.Stream, t.Key, t.TS) }

// route sequences one arrival and enqueues its ops: a probe op to the owner
// of every piece the band interval touches, then an insert op — which
// carries the watermark that lets the owner evict everything its stream has
// globally expired — to the key's owner shard. Every owner gets the whole
// [lo, hi] and answers from its own keys only; no owner is visited twice,
// because a striped band spans at most two stripes and adjacent stripes have
// different owners.
func (r *Router) route(s uint8, key uint32, ts uint64) {
	i, slot := r.Admit()
	own, probed, lo, hi, te, tl, seq, wm := r.Next(s, key, ts)
	k := len(r.engines)
	p1, p2 := piece(r.part, lo, k), piece(r.part, hi, k)
	r.probeStream[slot] = s
	r.probeSeq[slot] = seq
	r.Open(slot, p2-p1+1)
	for p := p1; p <= p2; p++ {
		d := p % k
		r.probeRouted[d]++
		r.enqueue(d, op{
			kind: opProbe, stream: probed, lo: lo, hi: hi,
			te: te, tl: tl, idx: i, bucket: p - p1,
		})
	}
	owner := Clamp(r.part.ShardOf(key), k)
	r.enqueue(owner, op{
		kind: opInsert, stream: own, key: key, seq: seq, te: wm, ts: ts,
	})
	r.Publish()
}

// frontiers returns each store slot's global eviction frontier: head -
// window clamped at zero for count windows, or — timed mode — the highest
// timestamp watermark any store has applied (released timestamps are
// monotone, so that is the global frontier). Workers must be quiescent.
func (r *Router) frontiers() (wms [2]uint64) {
	if r.cfg.Timed {
		return storeFrontiers(r.engines)
	}
	for slot := range wms {
		if r.heads[slot] > r.wlen[slot] {
			wms[slot] = r.heads[slot] - r.wlen[slot]
		}
	}
	if r.cfg.Self {
		wms[1] = wms[0]
	}
	return wms
}

// Reshape describes a live structural or parameter change applied by
// Router.Reshape at an epoch barrier. Zero fields keep the current value.
type Reshape struct {
	// Shards is the target shard count. Changing it is a full reshape epoch:
	// the worker set is stopped at the drain barrier, a fresh engine set is
	// spawned, live window slices migrate into it, and the retired engines
	// are dropped. The new engine set is dealt the default stripes
	// (newStripedPartitioner), so it has exactly the requested count.
	Shards int
	// BatchSize swaps the routed-ops-per-batch bound for subsequent epochs.
	BatchSize int
	// Capacity swaps the in-flight ring capacity. The ring is empty at the
	// reshape barrier (all routed arrivals are propagated), so the swap is a
	// plain reallocation.
	Capacity int
}

// Reshape applies a live reconfiguration at an epoch barrier: it drains
// every shard to quiescence, runs the ordered propagation to the frontier
// (emptying the in-flight ring), and then swaps parameters and — for a shard
// count change — the engine set itself, migrating live window contents into
// it. The match multiset is unaffected: no op or result is in flight while
// the structure changes, and every probe routed afterwards fans out under
// the partitioner that owns the migrated tuples. Producer-serialized, like
// Push and Drain; the timed reorder buffer is deliberately left untouched
// (flushing it would advance the watermark and turn merely-buffered tuples
// late).
func (r *Router) Reshape(q Reshape) {
	if q.Shards < 0 || q.BatchSize < 0 || q.Capacity < 0 {
		panic("shard: negative Reshape parameter")
	}
	r.drainBarrier()
	r.Propagate()
	if q.BatchSize > 0 {
		r.cfg.BatchSize, r.batchSize = q.BatchSize, q.BatchSize
	}
	if q.Capacity > 0 && q.Capacity != r.capN {
		r.resize(q.Capacity, len(r.engines))
	}
	if q.Shards > 0 && q.Shards != len(r.engines) {
		r.reshard(q.Shards)
	}
	r.reshapes.Add(1)
}

// reshard is the structural half of a reshape epoch: stop the worker set
// (parked at the drain barrier, so closing the channels releases them to
// exit), spawn a fresh engine set of the target count behind the default
// stripes, deal it every tuple live at the global frontiers (expired ones
// are dropped, not moved), resize the ring rows to the new fan-out width,
// and restart the workers. The retired stores are read on the router
// goroutine, ordered after the workers' writes by their exit.
func (r *Router) reshard(k int) {
	r.stop()
	// Seal the retiring workers' lanes (they have exited; the sealed
	// segments stay on disk until a later snapshot covers them).
	for _, l := range r.lanes {
		l.Close()
	}
	// Bank the retiring engines' merge statistics so Close's totals survive
	// the rebuild.
	for _, e := range r.engines {
		m, t := e.merges()
		r.baseMerges += m
		r.baseMergeTime += t
	}
	part := newStripedPartitioner(k, r.cfg.Band.Diff)
	cfg := r.cfg
	cfg.Part = part
	cfg.Shards = k
	engines, lanes := newEngines(cfg, k)
	wms := r.frontiers()
	window, moved := r.gather(wms, nil), 0
	for _, t := range window {
		if Clamp(r.part.ShardOf(t.Key), len(r.engines)) != Clamp(part.ShardOf(t.Key), k) {
			moved++
		}
	}
	r.moved.Add(int64(moved))
	deal(engines, part, cfg.Self, wms, window)
	r.Resize(r.capN, k)

	r.snapMu.Lock()
	r.cfg = cfg
	r.part = part
	r.start(engines, lanes)
	r.probeRouted = make([]int, k)
	r.snapMu.Unlock()
}

// Shards returns the live shard count — reshape epochs can change it. Safe
// from any goroutine.
func (r *Router) Shards() int {
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	return len(r.engines)
}

// BatchSize returns the routed-ops-per-batch bound in force. Producer-side,
// like Reshape, which swaps it.
func (r *Router) BatchSize() int { return r.batchSize }

// Reshapes returns how many reshape epochs have been applied. Safe from any
// goroutine.
func (r *Router) Reshapes() int { return int(r.reshapes.Load()) }

// Drain quiesces the session deterministically: flush the reorder buffer
// (timed mode — everything still buffered is admitted, advancing the
// watermark past it), flush every pending batch, wait at the drain barrier
// until all routed ops are applied, and run the ordered propagation to the
// frontier. On return every pushed tuple's matches have reached the sink
// and Matches(); the session stays usable. Router-goroutine only.
func (r *Router) Drain() {
	if r.reorder != nil {
		r.reorder.Flush(r.routeTimed)
	}
	r.drainBarrier()
	r.Propagate()
	if r.cfg.WAL != nil {
		// Drain is the durability checkpoint: record the frontier (the
		// watermark record makes the reorder clock recoverable even when the
		// disorder slack would otherwise hold it back) and fsync every lane.
		// The workers are parked at their channel receive behind the barrier,
		// so the router may touch their lanes.
		r.metaLane.AppendWatermark(r.heads, r.reorderMaxTS(), r.reorderFloor())
		for _, l := range r.lanes {
			l.Sync()
		}
		r.metaLane.Sync()
	}
}

// Migrated returns how many window tuples changed shards across all reshape
// epochs. Safe from any goroutine.
func (r *Router) Migrated() int { return int(r.moved.Load()) }

// ShardLoad is one shard's load snapshot, exposed for tests, diagnostics,
// and the bench harness.
type ShardLoad struct {
	QueueDepth int // batches pending in the shard's channel
	// QueueHW is the monotonic high-water mark of QueueDepth, observed at
	// every batch handoff since the shard engine was (re)created — a reshape
	// that changes the shard count starts fresh marks, because the shard
	// identities change. It shows sustained queue pressure that an
	// instantaneous depth sample would miss.
	QueueHW  uint64
	Resident int // tuples currently stored by the shard (both streams)
}

// LoadSnapshot returns each shard's current load: pending queue depth with
// its monotonic high-water mark, and resident window size. Every field is
// read from an atomic (or a channel length) under the reshape read-lock, so
// the snapshot is safe from any goroutine while pushes and reshapes are in
// flight; it is weakly consistent across shards, which is all a monitor
// needs.
func (r *Router) LoadSnapshot() []ShardLoad {
	r.snapMu.RLock()
	defer r.snapMu.RUnlock()
	out := make([]ShardLoad, len(r.engines))
	for s := range out {
		out[s] = ShardLoad{
			QueueDepth: len(r.chans[s]),
			QueueHW:    r.qhw[s].Load(),
			Resident:   int(r.engines[s].resident.Load()),
		}
	}
	return out
}

// Close flushes all pending batches, stops the workers, performs the final
// ordered propagation, and returns the run's statistics (Elapsed is left to
// the caller, which owns the clock).
func (r *Router) Close() join.Stats {
	if r.reorder != nil {
		// End-of-stream: route every tuple still held by the reorder buffer.
		r.reorder.Flush(r.routeTimed)
	}
	r.stop()
	r.Propagate()
	if r.cfg.WAL != nil {
		// Seal the log: final frontier record, then flush+fsync+close every
		// lane. The sealed segments are the recovery source for a reopen.
		r.metaLane.AppendWatermark(r.heads, r.reorderMaxTS(), r.reorderFloor())
		for _, l := range r.lanes {
			l.Close()
		}
		r.metaLane.Close()
	}
	st := join.Stats{Tuples: r.n, Matches: r.MatchCount(), Migrated: int(r.moved.Load())}
	if r.reorder != nil {
		st.LateDropped = r.reorder.LateDropped()
		st.MaxDisorder = r.reorder.MaxDisorder()
	}
	for _, e := range r.engines {
		m, t := e.merges()
		st.Merges += m
		st.MergeTime += t
	}
	st.Merges += r.baseMerges
	st.MergeTime += r.baseMergeTime
	return st
}

// Run executes the sharded join over a pre-materialized arrival sequence and
// returns its statistics — the sharded counterpart of paper.RunShared. The
// ring is sized to the whole input, so no push ever blocks.
func Run(arrivals []stream.Arrival, cfg Config) join.Stats {
	r := NewRouter(cfg, len(arrivals))
	start := time.Now()
	for _, a := range arrivals {
		r.Push(a)
	}
	st := r.Close()
	st.Elapsed = time.Since(start)
	return st
}

// RunTimed executes the sharded time-window join over a pre-materialized
// timed arrival sequence. Arrivals may carry event-time disorder up to
// cfg.Slack (the router's reorder buffer admits them in timestamp order;
// tuples later than the slack follow cfg.Late). Stats.Tuples counts
// admitted tuples.
func RunTimed(arrivals []join.TimedArrival, cfg Config) join.Stats {
	cfg.Timed = true
	r := NewRouter(cfg, len(arrivals))
	start := time.Now()
	for _, a := range arrivals {
		r.PushTimed(a.Stream, a.Key, a.TS)
	}
	st := r.Close()
	st.Elapsed = time.Since(start)
	return st
}
