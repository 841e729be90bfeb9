package pimtree

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/queue"
	"pimtree/internal/shard"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// Mode selects the execution runtime behind an Engine.
type Mode int

// The execution modes. ModeAuto picks one from the Config: a time window
// (Span > 0) selects ModeShardedTime, and otherwise multicore hosts get
// ModeSharded and single-core hosts ModeSerial.
const (
	ModeAuto Mode = iota
	// ModeSerial runs the single-threaded incremental IBWJ (Section 2) —
	// synchronous matches, no goroutines.
	ModeSerial
	// ModeSharded runs the key-range sharded runtime: single-writer
	// per-shard indexes behind a routing stage.
	ModeSharded
	// ModeShardedTime runs the sharded runtime over time-based windows with
	// out-of-order admission through a bounded reorder buffer.
	ModeShardedTime
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeSerial:
		return "serial"
	case ModeSharded:
		return "sharded"
	case ModeShardedTime:
		return "sharded-time"
	default:
		return "unknown"
	}
}

// Named error conditions of the Engine API, matchable with errors.Is.
var (
	// ErrClosed is returned by operations on an engine that has been closed.
	ErrClosed = errors.New("pimtree: engine is closed")
	// ErrAborted is returned by operations on an engine whose Drain or Close
	// was abandoned by a canceled context; only Close is still permitted.
	ErrAborted = errors.New("pimtree: engine aborted by a canceled Drain or Close")
	// ErrUnordered is wrapped by errors rejecting timestamp-regressing input
	// pushed to a time-based runtime in strict (LateNone) mode.
	ErrUnordered = errors.New("arrivals are not timestamp-ordered")
	// ErrNotTunable is wrapped by Reconfigure errors on engines whose
	// execution mode has no live-tunable parameters (the serial runtime).
	ErrNotTunable = errors.New("execution mode has no live-tunable parameters")
	// ErrWindowTooLarge is wrapped by validation errors rejecting a window
	// bound (WindowR, WindowS, MaxLive) above 2^31 tuples: index entries
	// name their tuple by the low 32 bits of its sequence, and liveness is
	// exact only while a window covers at most half of that space.
	ErrWindowTooLarge = errors.New("window exceeds 2^31 tuples")
)

// maxWindow is the largest WindowR, WindowS or MaxLive (see ErrWindowTooLarge).
const maxWindow = 1 << 31

func errWindowTooLarge(name string, w int) error {
	return fmt.Errorf("pimtree: %s %d: %w", name, w, ErrWindowTooLarge)
}

// errNotSorted is the uniform strict-mode disorder rejection shared by every
// time-based entry point.
func errNotSorted() error {
	return fmt.Errorf("pimtree: %w; set a LatePolicy (and Slack) to enable out-of-order ingestion", ErrUnordered)
}

// checkStream rejects a StreamID other than R and S before it can index a
// stream's window.
func checkStream(s StreamID) error {
	if s > S {
		return fmt.Errorf("pimtree: unknown StreamID %d", s)
	}
	return nil
}

// validateWindows is the uniform count-window validation shared by every
// count-window constructor.
func validateWindows(wr, ws int, self bool) error {
	if wr <= 0 {
		return fmt.Errorf("pimtree: WindowR %d must be positive", wr)
	}
	if !self && ws <= 0 {
		return fmt.Errorf("pimtree: WindowS %d must be positive", ws)
	}
	if int64(wr) > maxWindow {
		return errWindowTooLarge("WindowR", wr)
	}
	if !self && int64(ws) > maxWindow {
		return errWindowTooLarge("WindowS", ws)
	}
	return nil
}

// validateTimeWindow is the uniform time-window validation shared by every
// time-based constructor.
func validateTimeWindow(span uint64, maxLive int, needLive bool) error {
	if span == 0 {
		return fmt.Errorf("pimtree: Span must be positive")
	}
	if needLive && maxLive <= 0 {
		return fmt.Errorf("pimtree: MaxLive must be positive")
	}
	if int64(maxLive) > maxWindow {
		return errWindowTooLarge("MaxLive", maxLive)
	}
	return nil
}

// Config is the one validated option set behind every execution mode — the
// union of the windows, band, backend, and index tuning the runtimes share,
// plus the per-mode knobs each one reads. Open validates it once; it is the
// only way to configure a join in this package apart from the
// serial time-window reference, TimeJoin.
type Config struct {
	// Mode selects the runtime; ModeAuto (the zero value) picks one from
	// the rest of the configuration (see Mode).
	Mode Mode

	// WindowR and WindowS are the count-window lengths (WindowS is ignored
	// for self-joins). Required for the count-window modes.
	WindowR int
	WindowS int
	// Span is the time-window duration in timestamp units; setting it (with
	// ModeAuto) selects ModeShardedTime. MaxLive is the typical number of
	// simultaneously live tuples per window (required with Span): it stands
	// in for the window length, setting the per-shard index merge threshold
	// and the default snapshot cadence. It does not bound the stores, which
	// grow with what is live, so a burst past it costs only memory.
	Span    uint64
	MaxLive int

	Self bool   // self-join: one stream, one window
	Diff uint32 // band half-width: |R.x - S.x| <= Diff

	// Backend selects the index structure; every backend runs in every
	// mode.
	Backend Backend
	// Index tunes the two-stage backends. A zero MergeRatio defaults to the
	// serial 1/16 — the sharded modes' per-shard indexes are single-writer.
	// Open rejects the values NewIndex rejects.
	Index IndexOptions

	// Shards, BatchSize, and Partitioner shape the sharded modes (defaults:
	// GOMAXPROCS, 64, and stripes at least 256 bands (2·Diff+1 keys) wide
	// dealt to the shards round-robin, so a hot key band wider than a few
	// stripes loads every shard; a band too wide to stripe falls back to
	// equal-width ranges). A QuantilePartition still helps a static skew
	// narrower than one stripe. In the sharded modes Shards and BatchSize
	// only set the starting values — both are live-tunable afterwards
	// through Engine.Reconfigure.
	Shards      int
	BatchSize   int
	Partitioner Partitioner

	// Slack, LatePolicy, and OnLate configure out-of-order admission for
	// ModeShardedTime (see LatePolicy). With LateNone, pushes must be
	// timestamp-ordered and a regression fails with ErrUnordered. Setting
	// any of them in a count-window mode fails validation — there is no
	// event time for them to act on.
	Slack      uint64
	LatePolicy LatePolicy
	OnLate     func(t TimedArrival, lateness uint64)

	// OnMatch observes every match in arrival (propagation) order — the
	// push-side output. The pull side is Engine.Matches.
	OnMatch func(Match)
	// DiscardMatches keeps the engine from materializing individual matches
	// when neither output side is wanted: matches are only counted,
	// Matches() yields nothing, and OnMatch must be nil — the count-only
	// fast path for batch runs that want only statistics.
	DiscardMatches bool

	// QueueCapacity bounds the in-flight (pushed but not yet propagated)
	// tuples of the sharded modes; a Push past it blocks until the ordered
	// propagation frontier advances — the session's backpressure. Zero
	// selects the default, 16Ki. It is live-tunable through
	// Engine.Reconfigure.
	QueueCapacity int

	// Durability makes the sharded window state crash-recoverable through a
	// per-shard write-ahead log plus periodic compacting snapshots (see
	// Durability). Zero value disables it. With ModeAuto, setting
	// Durability.Dir selects a sharded mode like the other sharded knobs.
	Durability Durability
}

// validate resolves ModeAuto and checks the whole Config, returning the
// normalized copy. It is the single validation point behind every
// constructor in this package.
func (c Config) validate() (Config, error) {
	if c.Mode == ModeAuto {
		// Explicit per-mode knobs select their mode.
		switch {
		case c.Span > 0:
			c.Mode = ModeShardedTime
		case c.Shards > 0 || c.Partitioner != nil || c.Durability.enabled():
			c.Mode = ModeSharded
		case runtime.GOMAXPROCS(0) > 1:
			c.Mode = ModeSharded
		default:
			c.Mode = ModeSerial
		}
	}
	switch c.Mode {
	case ModeSerial, ModeSharded:
		if err := validateWindows(c.WindowR, c.WindowS, c.Self); err != nil {
			return c, err
		}
		// The time-window knobs change join semantics entirely and the
		// out-of-order knobs act on event time, which count windows do not
		// have; rejecting them beats silently ignoring them. (With ModeAuto
		// a Span resolves to ModeShardedTime, so reaching here means the
		// caller pinned a count mode explicitly.)
		if c.Span > 0 || c.MaxLive > 0 {
			return c, fmt.Errorf("pimtree: Span/MaxLive require %s mode (got %s)", ModeShardedTime, c.Mode)
		}
		if c.Slack > 0 || c.LatePolicy != LateNone || c.OnLate != nil {
			return c, fmt.Errorf("pimtree: Slack/LatePolicy/OnLate require %s mode (got %s)", ModeShardedTime, c.Mode)
		}
	case ModeShardedTime:
		if err := validateTimeWindow(c.Span, c.MaxLive, true); err != nil {
			return c, err
		}
		if err := validateLate(c.LatePolicy, c.Slack, c.OnLate); err != nil {
			return c, err
		}
	default:
		return c, fmt.Errorf("pimtree: unknown Mode %d", c.Mode)
	}
	if _, ok := c.Backend.kind(); !ok {
		return c, fmt.Errorf("pimtree: unknown Backend %d", c.Backend)
	}
	if err := c.Index.validate(); err != nil {
		return c, err
	}
	if err := c.Durability.validate(c.Mode); err != nil {
		return c, err
	}
	if c.DiscardMatches && c.OnMatch != nil {
		return c, fmt.Errorf("pimtree: DiscardMatches with OnMatch set (pick a side)")
	}
	return c, nil
}

// Engine lifecycle states.
const (
	stateOpen int32 = iota
	stateAborted
	stateClosing
	stateClosed
)

// Engine is a long-lived streaming band-join session over one of the
// execution runtimes. Open starts it; Push/PushTimed/PushBatch feed it
// incrementally; matches stream out through OnMatch (push side) and
// Matches (pull side); Stats snapshots progress mid-stream; Drain flushes
// it to a deterministic quiescent point; Close tears it down and returns
// the final statistics.
//
// Push, PushTimed, PushBatch, Drain, and Close must be called from one
// goroutine (the producer). Stats, Matches, Tuning, and Reconfigure are safe
// from any goroutine: the control plane serializes against the producer on
// an internal mutex, so an admin endpoint can reshape the engine while the
// producer keeps pushing.
type Engine struct {
	cfg  Config
	mode Mode

	// prodMu serializes the producer-side operations (pushes, Drain, Close
	// teardown) with live reconfiguration, which may arrive from any
	// goroutine. Producers are documented single-goroutine, so the mutex is
	// uncontended — and allocation-free — until the control plane acts.
	prodMu sync.Mutex
	// tunMu guards cfg against concurrent Tuning readers while Reconfigure
	// (under prodMu) swaps it.
	tunMu     sync.Mutex
	reconfigs atomic.Int64 // applied Reconfigure deltas

	serial *join.Streaming
	// serialBuf carries a ModeSerial PushBatch to the serial join one
	// locate chunk at a time (producer goroutine only).
	serialBuf []stream.Arrival
	router    *shard.Router
	wlog      *wal.Log // durability layer; nil unless Config.Durability.Dir

	onMatch func(Match)
	pull    *queue.Queue[Match]

	tuples        atomic.Uint64
	serialMatches atomic.Uint64
	lastTS        uint64 // strict-mode timestamp guard (producer goroutine)
	start         time.Time
	gcBase        metrics.GCSnapshot // GC counters at Open; Stats/Close diff against it

	state atomic.Int32
	bg    chan struct{} // abandoned Drain/Close teardown, awaited by Close
	final RunStats      // set before state becomes stateClosed
}

// Open validates the Config, builds the selected runtime, starts its
// workers, and returns the session handle. With Durability configured it
// first recovers any state a previous session left in the WAL directory, so
// the new session resumes the durable prefix.
func Open(cfg Config) (*Engine, error) {
	return openWithWALFS(cfg, nil)
}

// openWithWALFS is Open with the WAL filesystem injectable — the seam the
// crash-injection tests use to run recovery against an in-memory filesystem
// with deterministic crash points. nil selects the real filesystem.
func openWithWALFS(cfg Config, wfs wal.FS) (*Engine, error) {
	cc, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cc, mode: cc.Mode, onMatch: cc.OnMatch}
	if !cc.DiscardMatches {
		e.pull = queue.New[Match]()
	}
	var sink join.MatchSink
	if e.pull != nil || e.onMatch != nil {
		sink = e.dispatch
	}

	kind, _ := cc.Backend.kind()
	band := join.Band{Diff: cc.Diff}
	pim := core.PIMTreeConfig{MergeRatio: cc.Index.MergeRatio, InsertionDepth: cc.Index.InsertionDepth}
	switch cc.Mode {
	case ModeSerial:
		e.serial = join.NewStreaming(join.SerialConfig{
			WR: cc.WindowR, WS: cc.WindowS, Self: cc.Self, Band: band,
			Index: kind, PIM: pim, Sink: sink,
		})
		e.serialBuf = make([]stream.Arrival, join.LocateChunk)
	case ModeSharded, ModeShardedTime:
		rcfg := shard.Config{
			Shards:    defaultShards(cc.Shards),
			BatchSize: cc.BatchSize,
			Self:      cc.Self,
			Band:      band,
			Index:     kind,
			PIM:       pim,
			Part:      cc.Partitioner,
			Sink:      sink,
		}
		if cc.Mode == ModeShardedTime {
			rcfg.Timed = true
			rcfg.Span = cc.Span
			rcfg.MaxLive = cc.MaxLive
			rcfg.Slack = cc.Slack
			rcfg.Late = cc.LatePolicy.oooPolicy()
			rcfg.OnLate = oooLateAdapter(cc.OnLate)
		} else {
			rcfg.WR = cc.WindowR
			rcfg.WS = cc.WindowS
		}
		var wst *wal.State
		if cc.Durability.enabled() {
			wlog, st, werr := wal.Open(walOptions(cc, wfs))
			if werr != nil {
				return nil, fmt.Errorf("pimtree: opening WAL: %w", werr)
			}
			e.wlog = wlog
			wst = st
			rcfg.WAL = wlog
			rcfg.SnapshotEvery = snapshotCadence(cc)
		}
		e.router = shard.NewRouter(rcfg, cc.QueueCapacity)
		e.applied()
		// Replay before anything can push: the workers are parked, so the
		// restored window is published by the first batch send.
		e.router.Restore(wst)
	}
	e.start = time.Now()
	e.gcBase = metrics.ReadGC()
	return e, nil
}

func defaultShards(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Mode returns the resolved execution mode.
func (e *Engine) Mode() Mode { return e.mode }

// dispatch fans one propagated match out to both output sides.
func (e *Engine) dispatch(s uint8, probe, match uint64) {
	m := Match{ProbeStream: StreamID(s), ProbeSeq: probe, MatchSeq: match}
	if e.onMatch != nil {
		e.onMatch(m)
	}
	if e.pull != nil {
		e.pull.Push(m)
	}
}

func (e *Engine) pushable() error {
	switch e.state.Load() {
	case stateOpen:
		return nil
	case stateAborted:
		return ErrAborted
	default:
		return ErrClosed
	}
}

// lockProducer acquires the producer mutex and re-checks liveness under it:
// the engine may have started closing or aborted while the caller was parked
// behind a reconfiguration or an abandoned drain. Callers fast-fail on
// pushable before locking, so an aborted engine rejects pushes promptly
// instead of queueing them on the mutex.
func (e *Engine) lockProducer() error {
	e.prodMu.Lock()
	if err := e.pushable(); err != nil {
		e.prodMu.Unlock()
		return err
	}
	return nil
}

// Push feeds one count-window tuple. In the sharded modes it may block on
// backpressure (QueueCapacity); in ModeSerial its matches are dispatched
// before it returns.
func (e *Engine) Push(s StreamID, key uint32) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if e.mode == ModeShardedTime {
		return fmt.Errorf("pimtree: %s mode requires PushTimed (tuples carry event timestamps)", e.mode)
	}
	if err := checkStream(s); err != nil {
		return err
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	e.pushCount(stream.Arrival{Stream: uint8(s), Key: key})
	e.flushIdle()
	e.prodMu.Unlock()
	return nil
}

func (e *Engine) pushCount(a stream.Arrival) {
	if e.mode == ModeSerial {
		e.pushSerial(a)
	} else {
		e.router.Push(a)
	}
}

// flushIdle ends a producer call in the router modes: every shard whose lane
// is empty gets its partial batch now instead of once it fills, so at light
// load a probe's latency is one handoff, not a batch's worth of arrivals.
func (e *Engine) flushIdle() {
	if e.router != nil {
		e.router.FlushIdle()
	}
}

// pushSerial is the serial-mode push core: the sharded modes read the
// router's own counters, so only serial mode maintains the engine-side
// tuple/match accounting.
func (e *Engine) pushSerial(a stream.Arrival) {
	n := e.serial.Push(a)
	e.serialMatches.Add(uint64(n))
	e.tuples.Add(1)
}

// pushSerialBatch is pushSerial over a batch, handed to the serial join's
// PushBatch one locate chunk at a time.
func (e *Engine) pushSerialBatch(batch []Arrival) {
	for len(batch) > 0 {
		buf := e.serialBuf[:min(len(batch), len(e.serialBuf))]
		for i := range buf {
			buf[i] = stream.Arrival{Stream: uint8(batch[i].Stream), Key: batch[i].Key}
		}
		n := e.serial.PushBatch(buf)
		e.serialMatches.Add(uint64(n))
		e.tuples.Add(uint64(len(buf)))
		batch = batch[len(buf):]
	}
}

// PushTimed feeds one time-window tuple (ModeShardedTime). With a LatePolicy
// other than LateNone the tuple enters the reorder buffer and joins once the
// watermark releases it; in strict mode a timestamp regression is rejected
// with an error wrapping ErrUnordered.
func (e *Engine) PushTimed(s StreamID, key uint32, ts uint64) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if e.mode != ModeShardedTime {
		return fmt.Errorf("pimtree: PushTimed requires %s mode (%s windows are count-based)", ModeShardedTime, e.mode)
	}
	if err := checkStream(s); err != nil {
		return err
	}
	if e.cfg.LatePolicy == LateNone {
		if ts < e.lastTS {
			return errNotSorted()
		}
		e.lastTS = ts
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	e.router.PushTimed(uint8(s), key, ts)
	e.flushIdle()
	e.prodMu.Unlock()
	return nil
}

// PushBatch feeds a batch of tuples, amortizing the producer lock and the
// idle-lane flush over the batch. In ModeShardedTime the arrivals' TS fields
// carry the event timestamps and strict mode validates the whole batch before
// admitting any of it. So does the StreamID check: a batch holding an unknown
// StreamID is rejected whole.
func (e *Engine) PushBatch(batch []Arrival) error {
	if err := e.pushable(); err != nil {
		return err
	}
	for _, a := range batch {
		if err := checkStream(a.Stream); err != nil {
			return err
		}
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	defer e.prodMu.Unlock()
	defer e.flushIdle()
	switch e.mode {
	case ModeShardedTime:
		if e.cfg.LatePolicy == LateNone {
			last := e.lastTS
			for _, a := range batch {
				if a.TS < last {
					return errNotSorted()
				}
				last = a.TS
			}
			e.lastTS = last
		}
		for _, a := range batch {
			e.router.PushTimed(uint8(a.Stream), a.Key, a.TS)
		}
	case ModeSerial:
		e.pushSerialBatch(batch)
	default:
		for _, a := range batch {
			e.router.Push(stream.Arrival{Stream: uint8(a.Stream), Key: a.Key})
		}
	}
	return nil
}

// Matches returns the pull side of the session: an iterator over matches in
// propagation (arrival) order. The call arms collection — matches
// propagated before it are not replayed, so arm the iterator before pushing
// to observe everything. The iterator blocks awaiting further matches while
// the engine is open and ends once the engine is closed and the buffered
// matches are consumed; consume it from its own goroutine (or after Close).
// Breaking out of the loop disarms collection and drops the buffer (an
// abandoned iterator must not accumulate matches forever); a later Matches
// call re-arms from that point. It yields nothing when the engine was
// opened with DiscardMatches. Matches is MatchBatches one match at a time.
func (e *Engine) Matches() iter.Seq[Match] {
	if e.pull == nil {
		return func(func(Match) bool) {}
	}
	return e.pull.All()
}

// MatchBatches is Matches in runs: each step yields every match buffered at
// that moment (up to a few thousand), in propagation order, taken from the
// pull side under one lock. The yielded slice is reused and valid only until
// the next step; copy what must outlive it. Arming, blocking, ending and
// breaking behave as for Matches.
func (e *Engine) MatchBatches() iter.Seq[[]Match] {
	if e.pull == nil {
		return func(func([]Match) bool) {}
	}
	return e.pull.Batches()
}

// Stats returns a live snapshot: tuples admitted by the runtime (in
// ModeShardedTime this excludes tuples still buffered for reordering or
// dropped as late, matching the accounting Close finalizes), matches
// propagated so far (trailing pushes by the in-flight tuples), wall time
// since Open, and — in the sharded modes — reshape migrations and shard
// imbalance (MigratedTuples, Imbalance), observable mid-stream, not only
// after Close. The remaining maintenance counters
// (Merges, late accounting) are finalized by Close; after Close,
// Stats returns the final statistics. Safe from any goroutine.
func (e *Engine) Stats() RunStats {
	if e.state.Load() == stateClosed {
		return e.final
	}
	var st RunStats
	switch e.mode {
	case ModeSerial:
		st.Tuples = int(e.tuples.Load())
		st.Matches = e.serialMatches.Load()
	default:
		st.Tuples = e.router.Published()
		st.Matches = e.router.MatchCount()
		st.MigratedTuples = e.router.Migrated()
		st.Imbalance = shardImbalance(e.router.LoadSnapshot())
	}
	st.Elapsed = time.Since(e.start)
	st.Mtps = metrics.Mtps(st.Tuples, st.Elapsed)
	e.fillGC(&st)
	return st
}

// fillGC populates the GC-pressure fields of a RunStats from the delta
// between the current runtime counters and the snapshot taken at Open.
func (e *Engine) fillGC(st *RunStats) {
	d := metrics.ReadGC().Sub(e.gcBase)
	st.AllocObjects = d.AllocObjects
	st.AllocBytes = d.AllocBytes
	st.GCCycles = d.GCCycles
	st.GCPauseTotal = time.Duration(d.GCPauseSecs * float64(time.Second))
	if st.Tuples > 0 {
		st.AllocsPerTuple = float64(d.AllocObjects) / float64(st.Tuples)
		st.BytesPerTuple = float64(d.AllocBytes) / float64(st.Tuples)
	}
}

// ShardLoads returns each shard's live load snapshot in the sharded modes
// (nil elsewhere): pending queue depth with its high-water mark, and
// resident window size. Safe from any goroutine; the snapshot is weakly
// consistent across shards.
func (e *Engine) ShardLoads() []ShardLoad {
	if e.router == nil {
		return nil
	}
	snap := e.router.LoadSnapshot()
	out := make([]ShardLoad, len(snap))
	for i, s := range snap {
		out[i] = ShardLoad(s)
	}
	return out
}

// EmitsMatches reports whether the session materializes individual matches —
// false when opened with Config.DiscardMatches, in which case Matches yields
// nothing and only the match count is maintained. The serving layer consults
// it to reject match subscriptions a discarding engine could never satisfy.
func (e *Engine) EmitsMatches() bool { return e.pull != nil }

// shardImbalance folds a shard load snapshot into the single imbalance
// ratio exposed by RunStats, over resident window tuples.
func shardImbalance(snap []shard.ShardLoad) float64 {
	resident := make([]uint64, len(snap))
	for i, s := range snap {
		resident[i] = uint64(s.Resident)
	}
	return metrics.Imbalance(resident)
}

// Drain flushes the session to a deterministic quiescent point and blocks
// until every pushed tuple's matches have been propagated: pending shard
// batches are flushed, and in ModeShardedTime the reorder buffer is flushed — which advances the
// watermark past everything buffered, so strictly older tuples pushed
// afterwards are late. The session stays usable.
//
// If ctx is done first, Drain returns its error: the abandoned drain keeps
// flushing in the background and the engine becomes aborted: further pushes
// fail with ErrAborted and only Close is permitted.
func (e *Engine) Drain(ctx context.Context) error {
	if err := e.pushable(); err != nil {
		return err
	}
	if e.mode == ModeSerial {
		return nil // synchronous: nothing is ever in flight
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		// Un-cancelable context (e.g. context.Background()): drain
		// synchronously instead of spawning the watchdog goroutine, so a
		// push-drain steady state stays allocation-free.
		e.router.Drain()
		e.prodMu.Unlock()
		return nil
	}
	done := make(chan struct{})
	go func() {
		// The drain goroutine owns the producer mutex until the router is
		// actually quiescent — an abandoned drain is still a producer-side
		// operation in flight, and Reconfigure must keep waiting for it.
		defer close(done)
		e.router.Drain()
		e.prodMu.Unlock()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Both can be ready at once and select picks randomly; a drain
		// that actually completed must not brick the session.
		select {
		case <-done:
			return nil
		default:
		}
		e.bg = done
		e.state.Store(stateAborted)
		return fmt.Errorf("pimtree: drain abandoned: %w", ctx.Err())
	}
}

// Close drains and tears the session down: remaining queued tuples are
// processed, the reorder buffer is flushed, workers exit, and the final
// run statistics are returned. Closing an already-closed engine returns
// ErrClosed.
//
// If ctx is done before the teardown completes, Close returns its error;
// the teardown keeps running in the background, the engine counts as
// closed, and the final statistics are lost.
func (e *Engine) Close(ctx context.Context) (RunStats, error) {
	for {
		st := e.state.Load()
		if st == stateClosing || st == stateClosed {
			return RunStats{}, ErrClosed
		}
		if e.state.CompareAndSwap(st, stateClosing) {
			break
		}
	}
	done := make(chan struct{})
	var st join.Stats
	go func() {
		defer close(done)
		if e.bg != nil {
			// An abandoned Drain is still flushing; the runtime is
			// single-producer, so wait for it before tearing down.
			<-e.bg
		}
		// Teardown is a producer-side operation: taking the mutex waits out
		// any reconfiguration (or late push) already holding it.
		e.prodMu.Lock()
		defer e.prodMu.Unlock()
		if e.mode == ModeSerial {
			m, t := e.serial.Merges()
			st = join.Stats{
				Tuples:    int(e.tuples.Load()),
				Matches:   e.serialMatches.Load(),
				Merges:    m,
				MergeTime: t,
			}
		} else {
			st = e.router.Close()
		}
		if e.pull != nil {
			e.pull.Close()
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Both can be ready at once and select picks randomly; a teardown
		// that actually finished must not be reported abandoned (that
		// would discard the final statistics forever).
		select {
		case <-done:
		default:
			return RunStats{}, fmt.Errorf("pimtree: close abandoned: %w", ctx.Err())
		}
	}
	e.final = e.finish(st)
	e.state.Store(stateClosed)
	return e.final, nil
}

// finish converts the runtime's final statistics into the public RunStats.
func (e *Engine) finish(st join.Stats) RunStats {
	elapsed := st.Elapsed
	if elapsed == 0 {
		elapsed = time.Since(e.start)
	}
	rs := RunStats{
		Tuples:              st.Tuples,
		Matches:             st.Matches,
		Elapsed:             elapsed,
		Mtps:                metrics.Mtps(st.Tuples, elapsed),
		Merges:              st.Merges,
		MergeTime:           st.MergeTime,
		MigratedTuples:      st.Migrated,
		LateDropped:         st.LateDropped,
		MaxObservedDisorder: st.MaxDisorder,
	}
	if e.router != nil {
		rs.Imbalance = shardImbalance(e.router.LoadSnapshot())
	}
	e.fillGC(&rs)
	return rs
}
