package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pimtree"
	"pimtree/internal/metrics"
)

// SlowPolicy selects what the match fan-out does when a subscriber's
// bounded queue is full — the serving-layer analogue of the Engine's
// QueueCapacity backpressure.
type SlowPolicy int

// The fan-out offers matches to each subscriber in chunks of up to 512, in
// propagation order; the policies below decide a whole chunk at a time.
const (
	// DropNewest (the default) drops the chunk for that subscriber and
	// counts its matches in MatchesDropped: one slow consumer never stalls
	// ingest or the other subscribers. Matches that are delivered stay in
	// propagation order.
	DropNewest SlowPolicy = iota
	// Block makes the fan-out wait for queue space: no match is ever
	// dropped, but a stalled subscriber stalls match delivery to everyone.
	// Ingest is NOT stalled — the engine's pull-side match buffer is
	// unbounded by design, so while a blocking subscriber is wedged,
	// propagated matches accumulate in process memory. Use Block only for
	// subscribers trusted to keep reading; DropNewest is the safe default
	// for untrusted consumers.
	Block
)

// String names the policy.
func (p SlowPolicy) String() string {
	if p == Block {
		return "block"
	}
	return "drop"
}

// Options configures Serve.
type Options struct {
	// Addr is the TCP listen address of the binary ingest/egress protocol
	// (required; host:port, port 0 picks an ephemeral port).
	Addr string
	// AdminAddr is the HTTP admin listen address serving /stats, /metrics,
	// /healthz, /tuning and the net/http/pprof handlers under /debug/pprof/.
	// Empty disables the admin endpoint.
	AdminAddr string
	// SubscriberQueue bounds each subscriber's outbound match queue
	// (default 1024 matches), counted in matches however they are chunked:
	// a chunk is accepted while fewer than SubscriberQueue matches are
	// queued, so the queue overshoots by less than one chunk (512). See
	// SlowPolicy for what happens when it fills. It separately bounds a
	// connection's queued control frames (and a cluster member session's
	// result frames). Queue memory grows with use; none is reserved up front.
	SubscriberQueue int
	// Slow is the slow-subscriber policy (default DropNewest).
	Slow SlowPolicy
	// MaxFrame bounds accepted frame payloads in bytes (default
	// DefaultMaxFrame).
	MaxFrame int
	// IngestQueue bounds decoded ingest batches in flight between the
	// connection readers and the engine producer goroutine (default 64
	// batches). Together with the engine's QueueCapacity this is what turns
	// engine backpressure into TCP backpressure.
	IngestQueue int
	// NodeID identifies this node in /stats, /healthz, and the
	// pimtree_node_info metric family, so multi-node scrapes are
	// distinguishable. Defaults to the protocol listener's address. Also
	// echoed to cluster routers in the member-session handshake.
	NodeID string
	// Role labels the node's function ("serve", "route", ...) alongside
	// NodeID. Defaults to "serve".
	Role string
	// AdminMux, when set, may register extra admin handlers on the mux
	// before the server starts (the built-in /stats, /metrics, /healthz,
	// /tuning and /debug/pprof/ routes are registered first). Used by the
	// cluster router to expose its membership endpoints.
	AdminMux func(mux *http.ServeMux)
	// ExtraProm, when set, contributes additional metric families to the
	// /metrics exposition (appended after the built-in families).
	ExtraProm func() []metrics.PromFamily
	// Logf, when set, receives server lifecycle log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SubscriberQueue <= 0 {
		o.SubscriberQueue = 1024
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	if o.IngestQueue <= 0 {
		o.IngestQueue = 64
	}
	if o.Role == "" {
		o.Role = "serve"
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// ServeStats is a snapshot of the server-side counters (the engine's own
// statistics live in pimtree.RunStats, scraped separately).
type ServeStats struct {
	Connections      int    // currently open protocol connections
	Subscribers      int    // connections subscribed to match egress
	Members          int    // currently open cluster member sessions
	IngestFrames     uint64 // ingest frames accepted
	IngestTuples     uint64 // tuples pushed into the engine
	MemberOpFrames   uint64 // cluster ops frames applied by member sessions
	MatchesDelivered uint64 // matches handed to subscriber queues
	MatchesDropped   uint64 // matches dropped by the DropNewest policy
	ProtocolErrors   uint64 // connections failed for protocol violations
	Draining         bool   // shutdown in progress
}

var errDraining = errors.New("server is draining")

// arrivalBatches recycles decoded ingest batches between the connection
// readers (decode) and the producer goroutine (push): the engine copies
// arrivals into its own queues, so the slice is dead the moment PushBatch
// returns and steady-state ingest decodes without allocating. Pointers to
// slices are pooled so Put itself does not allocate a box.
var arrivalBatches = sync.Pool{New: func() any { return new([]pimtree.Arrival) }}

func getArrivalBatch() *[]pimtree.Arrival  { return arrivalBatches.Get().(*[]pimtree.Arrival) }
func putArrivalBatch(b *[]pimtree.Arrival) { arrivalBatches.Put(b) }

// ingestReq is one unit of work for the engine producer goroutine: a
// decoded arrival batch (pooled; the producer returns it), or a drain
// request.
type ingestReq struct {
	c     *conn
	batch *[]pimtree.Arrival
	drain bool
}

// Engine is what the server serves: the subset of *pimtree.Engine the wire
// and admin planes touch. *pimtree.Engine implements it directly; the
// cluster router's frontend (internal/cluster) implements it over N remote
// nodes, which is how `pimjoin route` reuses this entire serving layer —
// connections, producer serialization, match fan-out, drain ordering, admin
// endpoints — unchanged.
type Engine interface {
	Mode() pimtree.Mode
	EmitsMatches() bool
	// MatchBatches returns the pull-side match iterator in runs, each slice
	// valid until the next step. The server arms it once at New and is its
	// only consumer.
	MatchBatches() iter.Seq[[]pimtree.Match]
	Stats() pimtree.RunStats
	// PushBatch is called from a single producer goroutine, as the Engine
	// API requires.
	PushBatch([]pimtree.Arrival) error
	Drain(context.Context) error
	Close(context.Context) (pimtree.RunStats, error)
	ShardLoads() []pimtree.ShardLoad
	Reconfigure(pimtree.Delta) error
	Tuning() pimtree.Tuning
}

// Server wraps one long-lived Engine behind the wire protocol. All pushes
// from all connections are serialized through a single producer goroutine
// (the Engine's contract), and one fan-out goroutine consumes the engine's
// pull-side match iterator into per-subscriber bounded queues.
type Server struct {
	opts   Options
	eng    Engine
	timed  bool
	fanout bool // engine materializes matches (subscriptions possible)

	ln      net.Listener
	adminLn net.Listener
	admin   *http.Server

	mu       sync.Mutex
	conns    map[*conn]struct{}
	subsList atomic.Pointer[[]*conn]

	ingest        chan ingestReq
	ingestMu      sync.RWMutex
	ingestStopped bool
	ingestDone    chan struct{}
	fanoutDone    chan struct{}

	// delivered counts matches consumed from the engine's pull iterator
	// (delivered to every subscriber queue or dropped by policy); drain
	// acknowledgements wait on it so FrameDrained is ordered after the
	// matches it covers. delBase is the engine's match count at New — the
	// fan-out never sees matches propagated before the iterator was armed,
	// so drain targets are measured relative to it. Same lost-wakeup-free
	// waiter pattern as the runtimes' backpressure: the waiter increments
	// delWaiters under the mutex before re-checking, the fan-out loads it
	// after storing.
	delivered  atomic.Uint64
	delBase    uint64
	delMu      sync.Mutex
	delCond    *sync.Cond
	delWaiters atomic.Int32

	ingestFrames     atomic.Uint64
	ingestTuples     atomic.Uint64
	members          atomic.Int64
	memberOpFrames   atomic.Uint64
	matchesDelivered atomic.Uint64
	matchesDropped   atomic.Uint64
	protoErrs        atomic.Uint64
	draining         atomic.Bool

	acceptDone chan struct{}
	readerWg   sync.WaitGroup
	writerWg   sync.WaitGroup

	shutOnce   sync.Once
	shutDone   chan struct{}
	finalStats pimtree.RunStats
	finalErr   error
}

// New starts a server over the engine: it arms the engine's match iterator
// (before any network ingest, so no match can escape the fan-out), binds
// the protocol listener (and the admin listener when configured), and
// starts the accept, producer, and fan-out loops. The server owns the
// engine from here on: Shutdown closes it and returns its final RunStats.
func New(e Engine, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.Addr == "" {
		return nil, errors.New("server: Options.Addr is required")
	}
	s := &Server{
		opts:       opts,
		eng:        e,
		timed:      e.Mode() == pimtree.ModeShardedTime,
		fanout:     e.EmitsMatches(),
		conns:      make(map[*conn]struct{}),
		ingest:     make(chan ingestReq, opts.IngestQueue),
		ingestDone: make(chan struct{}),
		fanoutDone: make(chan struct{}),
		acceptDone: make(chan struct{}),
		shutDone:   make(chan struct{}),
	}
	s.delCond = sync.NewCond(&s.delMu)

	// Arm the pull side before the listener exists: matches propagated for
	// the very first network push must already be collected. The server is
	// the engine's single producer from here on, so the match count cannot
	// move between arming and the baseline snapshot; matches a previous
	// owner already produced are excluded from drain targets (the fan-out
	// will never see them).
	var batches iter.Seq[[]pimtree.Match]
	if s.fanout {
		batches = e.MatchBatches()
		s.delBase = e.Stats().Matches
	}

	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", opts.Addr, err)
	}
	s.ln = ln
	if s.opts.NodeID == "" {
		s.opts.NodeID = ln.Addr().String()
	}
	if opts.AdminAddr != "" {
		adminLn, err := net.Listen("tcp", opts.AdminAddr)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("server: admin listen %s: %w", opts.AdminAddr, err)
		}
		s.adminLn = adminLn
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/stats", s.handleStats)
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/tuning", s.handleTuning)
		// The profiler on the admin port only: this mux, not
		// http.DefaultServeMux, which nothing here serves.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if opts.AdminMux != nil {
			opts.AdminMux(mux)
		}
		s.admin = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := s.admin.Serve(adminLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.opts.Logf("server: admin: %v", err)
			}
		}()
	}

	go s.ingestLoop()
	if s.fanout {
		go s.fanoutLoop(batches)
	} else {
		close(s.fanoutDone)
	}
	go s.acceptLoop()
	s.opts.Logf("server: serving on %s (admin %s, mode %s, slow-subscriber policy %s)",
		s.Addr(), opts.AdminAddr, e.Mode(), opts.Slow)
	return s, nil
}

// Addr returns the protocol listener's address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AdminAddr returns the admin listener's address, or nil when disabled.
func (s *Server) AdminAddr() net.Addr {
	if s.adminLn == nil {
		return nil
	}
	return s.adminLn.Addr()
}

// Engine returns the wrapped engine (live Stats/ShardLoads scraping).
func (s *Server) Engine() Engine { return s.eng }

// NodeID returns the node identity served in /stats and /healthz.
func (s *Server) NodeID() string { return s.opts.NodeID }

// Stats returns a snapshot of the server-side counters.
func (s *Server) Stats() ServeStats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	subs := 0
	if l := s.subsList.Load(); l != nil {
		subs = len(*l)
	}
	return ServeStats{
		Connections:      conns,
		Subscribers:      subs,
		Members:          int(s.members.Load()),
		IngestFrames:     s.ingestFrames.Load(),
		IngestTuples:     s.ingestTuples.Load(),
		MemberOpFrames:   s.memberOpFrames.Load(),
		MatchesDelivered: s.matchesDelivered.Load(),
		MatchesDropped:   s.matchesDropped.Load(),
		ProtocolErrors:   s.protoErrs.Load(),
		Draining:         s.draining.Load(),
	}
}

// acceptLoop admits protocol connections until the listener closes.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept errors (e.g. EMFILE) must not spin the loop.
			s.opts.Logf("server: accept: %v", err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.readerWg.Add(1)
		s.writerWg.Add(1)
		go c.reader()
		go c.writer()
	}
}

// submit hands one ingest request to the producer goroutine, blocking while
// the ingest queue is full (TCP backpressure). It fails once shutdown has
// stopped ingestion or the connection is closed.
func (s *Server) submit(req ingestReq) error {
	s.ingestMu.RLock()
	defer s.ingestMu.RUnlock()
	if s.ingestStopped {
		return errDraining
	}
	select {
	case s.ingest <- req:
		return nil
	case <-req.c.done:
		return net.ErrClosed
	}
}

// ingestLoop is the engine's single producer: it applies decoded batches
// and drain requests in submission order until shutdown closes the queue.
func (s *Server) ingestLoop() {
	defer close(s.ingestDone)
	for req := range s.ingest {
		if req.c.failed.Load() {
			// The connection already died on an error: applying batches it
			// pipelined past the failure point would silently ingest data
			// with a gap where the rejected batch was.
			if req.batch != nil {
				putArrivalBatch(req.batch)
			}
			continue
		}
		if req.drain {
			s.handleDrain(req.c)
			continue
		}
		n := len(*req.batch)
		err := s.eng.PushBatch(*req.batch)
		putArrivalBatch(req.batch)
		if err != nil {
			if errors.Is(err, pimtree.ErrClosed) || errors.Is(err, pimtree.ErrAborted) {
				continue // shutdown raced the push; the batch is not joined
			}
			// Engine-level rejection (e.g. strict-mode disorder): the
			// offending connection dies, the engine and every other
			// connection keep running. failed is set here, synchronously,
			// so batches this connection pipelined behind the rejected one
			// are discarded by the guard above; the abort itself can wait
			// on a slow writer, so it must not run on the producer
			// goroutine.
			req.c.failed.Store(true)
			go req.c.abort(err.Error())
			continue
		}
		s.ingestTuples.Add(uint64(n))
	}
}

// handleDrain services one FrameDrain. Only the engine drain itself runs
// on the producer goroutine (the Engine API's single-producer contract);
// the wait for fan-out delivery and the acknowledgement are spawned off it,
// because under the Block policy a wedged subscriber can stall delivery
// indefinitely — that must stall drain acknowledgements, never ingest.
func (s *Server) handleDrain(c *conn) {
	if err := s.eng.Drain(context.Background()); err != nil {
		go c.abort(fmt.Sprintf("drain: %v", err))
		return
	}
	target := s.eng.Stats().Matches - s.delBase
	go func() {
		if err := s.waitDelivered(context.Background(), target); err != nil {
			c.abort(fmt.Sprintf("drain: %v", err))
			return
		}
		// The acknowledgement enters the connection's outbound queue after
		// the matches the drain covers, so the client sees them first.
		c.send(outItem{typ: FrameDrained})
	}()
}

// waitDelivered blocks until the fan-out has consumed at least target
// matches from the engine's pull iterator.
func (s *Server) waitDelivered(ctx context.Context, target uint64) error {
	if !s.fanout {
		return nil
	}
	stop := context.AfterFunc(ctx, func() { s.delCond.Broadcast() })
	defer stop()
	s.delMu.Lock()
	defer s.delMu.Unlock()
	s.delWaiters.Add(1)
	defer s.delWaiters.Add(-1)
	for s.delivered.Load() < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.delCond.Wait()
	}
	return nil
}

// fanoutLoop is the single consumer of the engine's pull side: it takes
// whatever is buffered there in one step and hands it on with fanoutBatch. It
// exits when the engine closes (after the buffered remainder is consumed —
// nothing propagated before Close is ever lost to the queues).
func (s *Server) fanoutLoop(batches iter.Seq[[]pimtree.Match]) {
	defer close(s.fanoutDone)
	for b := range batches {
		s.fanoutBatch(b)
	}
	// Late drain waiters must not hang on a closed engine.
	s.delMu.Lock()
	s.delivered.Store(^uint64(0))
	s.delCond.Broadcast()
	s.delMu.Unlock()
}

// fanoutBatch offers a run of matches to every subscriber's bounded queue in
// chunks of at most matchCoalesce, each chunk accepted or refused whole
// under the slow-subscriber policy. delivered advances by a chunk only once
// every subscriber has taken or dropped it, so a drain acknowledgement
// queued after that is ordered after the chunk.
func (s *Server) fanoutBatch(ms []pimtree.Match) {
	block := s.opts.Slow == Block
	for len(ms) > 0 {
		chunk := ms[:min(len(ms), matchCoalesce)]
		ms = ms[len(chunk):]
		n := uint64(len(chunk))
		if l := s.subsList.Load(); l != nil {
			for _, c := range *l {
				if c.deliver(chunk, block) {
					s.matchesDelivered.Add(n)
				} else {
					s.matchesDropped.Add(n)
				}
			}
		}
		s.delivered.Add(n)
		if s.delWaiters.Load() > 0 {
			s.delMu.Lock()
			s.delCond.Broadcast()
			s.delMu.Unlock()
		}
	}
}

// addSub registers a connection for match egress.
func (s *Server) addSub(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rebuildSubsLocked(c, true)
}

// removeConn unregisters a connection entirely.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	if c.subscribed.Load() {
		s.rebuildSubsLocked(c, false)
	}
}

func (s *Server) rebuildSubsLocked(c *conn, add bool) {
	var cur []*conn
	if l := s.subsList.Load(); l != nil {
		cur = *l
	}
	next := make([]*conn, 0, len(cur)+1)
	for _, o := range cur {
		if o != c {
			next = append(next, o)
		}
	}
	if add {
		next = append(next, c)
	}
	s.subsList.Store(&next)
}

// Shutdown gracefully drains and tears the server down: stop accepting,
// stop new ingest but apply everything already queued, close the engine
// (which flushes reorder buffers and pending shard batches), deliver every
// remaining match to the subscriber queues, flush and close every
// connection, and finally stop the admin endpoint (it stays observable
// throughout the drain). Returns the engine's final statistics.
//
// If ctx is done before the drain completes, Shutdown abandons the
// remaining graceful steps, hard-closes everything, and returns the
// context's error alongside whatever statistics the engine reported.
// Shutdown is idempotent; concurrent calls all return the first outcome.
func (s *Server) Shutdown(ctx context.Context) (pimtree.RunStats, error) {
	s.shutOnce.Do(func() {
		s.finalStats, s.finalErr = s.shutdown(ctx)
		close(s.shutDone)
	})
	<-s.shutDone
	return s.finalStats, s.finalErr
}

func (s *Server) shutdown(ctx context.Context) (pimtree.RunStats, error) {
	s.draining.Store(true)
	s.ln.Close()
	<-s.acceptDone

	// Stop new ingest; the producer drains what is already queued.
	s.ingestMu.Lock()
	s.ingestStopped = true
	close(s.ingest)
	s.ingestMu.Unlock()
	if err := waitCtx(ctx, s.ingestDone); err != nil {
		return s.hardClose(err)
	}

	// Close the engine: every queued tuple joins, the pull iterator ends,
	// and the fan-out finishes handing the remainder to subscriber queues.
	st, err := s.eng.Close(ctx)
	if err != nil && !errors.Is(err, pimtree.ErrClosed) {
		hst, herr := s.hardClose(err)
		if hst == (pimtree.RunStats{}) {
			hst = st
		}
		return hst, herr
	}
	if werr := waitCtx(ctx, s.fanoutDone); werr != nil {
		hst, herr := s.hardClose(werr)
		if hst == (pimtree.RunStats{}) {
			hst = st
		}
		return hst, herr
	}

	// Flush subscriber queues: writers drain their outbound items, then the
	// connections close (subscribers see a clean EOF after the last match).
	s.mu.Lock()
	open := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	for _, c := range open {
		c.closeGraceful()
	}
	writersIdle := make(chan struct{})
	go func() { s.writerWg.Wait(); close(writersIdle) }()
	werr := waitCtx(ctx, writersIdle)
	for _, c := range open {
		c.close()
	}
	readersIdle := make(chan struct{})
	go func() { s.readerWg.Wait(); close(readersIdle) }()
	if werr == nil {
		werr = waitCtx(ctx, readersIdle)
	}

	if s.admin != nil {
		actx := ctx
		if actx.Err() != nil {
			actx = context.Background()
		}
		s.admin.Shutdown(actx)
	}
	s.opts.Logf("server: drained (%d tuples, %d matches)", st.Tuples, st.Matches)
	return st, werr
}

// hardClose is the abandoned-shutdown path: close every connection and the
// admin endpoint immediately. The engine teardown is deferred to a
// background goroutine gated on the producer loop exiting — Close from
// this goroutine while ingestLoop may still be inside PushBatch/Drain
// would violate the engine's single-producer contract. The final
// statistics are lost, as with an abandoned Engine.Close.
func (s *Server) hardClose(cause error) (pimtree.RunStats, error) {
	s.mu.Lock()
	open := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	for _, c := range open {
		c.close()
	}
	if s.admin != nil {
		s.admin.Close()
	}
	go func() {
		// The ingest queue is already closed (every hardClose call site is
		// past that point), and closing the connections above unwedges any
		// drain stalled on a blocking subscriber, so the producer loop does
		// exit and the close runs.
		<-s.ingestDone
		s.eng.Close(context.Background())
	}()
	return pimtree.RunStats{}, cause
}

// waitCtx waits for ch or the context, whichever first.
func waitCtx(ctx context.Context, ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		// Both may be ready; a wait that actually completed is a success.
		select {
		case <-ch:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// --- admin endpoint ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, fmt.Sprintf("draining node=%s role=%s", s.opts.NodeID, s.opts.Role), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok node=%s role=%s\n", s.opts.NodeID, s.opts.Role)
}

// shardJSON mirrors pimtree.ShardLoad with stable JSON names.
type shardJSON struct {
	QueueDepth   int    `json:"queue_depth"`
	QueueDepthHW uint64 `json:"queue_depth_hw"`
	Resident     int    `json:"resident"`
}

// walJSON mirrors pimtree.WALStats with stable JSON names.
type walJSON struct {
	AppendedRecords uint64  `json:"appended_records"`
	AppendedBytes   uint64  `json:"appended_bytes"`
	Fsyncs          uint64  `json:"fsyncs"`
	Snapshots       uint64  `json:"snapshots"`
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	ReplayRecords   uint64  `json:"replay_records"`
	ReplaySeconds   float64 `json:"replay_seconds"`
	Truncations     uint64  `json:"truncations"`
	WriteErrors     uint64  `json:"write_errors"`
}

// walStats returns the durability counters when the served engine exposes
// them AND durability is configured. The Engine interface stays minimal —
// WALStats is probed through an optional interface, so cluster frontends
// (which have no single WAL) simply report nothing.
func (s *Server) walStats() (pimtree.WALStats, bool) {
	e, ok := s.eng.(interface{ WALStats() pimtree.WALStats })
	if !ok {
		return pimtree.WALStats{}, false
	}
	ws := e.WALStats()
	return ws, ws.Enabled
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	sv := s.Stats()
	var shards []shardJSON
	for _, l := range s.eng.ShardLoads() {
		shards = append(shards, shardJSON{QueueDepth: l.QueueDepth, QueueDepthHW: l.QueueHW, Resident: l.Resident})
	}
	payload := struct {
		Node struct {
			ID   string `json:"id"`
			Role string `json:"role"`
		} `json:"node"`
		Mode                string      `json:"mode"`
		Tuples              int         `json:"tuples"`
		Matches             uint64      `json:"matches"`
		ElapsedSeconds      float64     `json:"elapsed_seconds"`
		Mtps                float64     `json:"mtps"`
		MigratedTuples      int         `json:"migrated_tuples"`
		LateDropped         uint64      `json:"late_dropped"`
		MaxObservedDisorder uint64      `json:"max_observed_disorder"`
		Imbalance           float64     `json:"imbalance"`
		AllocObjects        uint64      `json:"alloc_objects"`
		AllocBytes          uint64      `json:"alloc_bytes"`
		AllocsPerTuple      float64     `json:"allocs_per_tuple"`
		BytesPerTuple       float64     `json:"bytes_per_tuple"`
		GCCycles            uint64      `json:"gc_cycles"`
		GCPauseSeconds      float64     `json:"gc_pause_seconds"`
		Shards              []shardJSON `json:"shards,omitempty"`
		WAL                 *walJSON    `json:"wal,omitempty"`
		Server              struct {
			Connections      int    `json:"connections"`
			Subscribers      int    `json:"subscribers"`
			Members          int    `json:"members"`
			IngestFrames     uint64 `json:"ingest_frames"`
			IngestTuples     uint64 `json:"ingest_tuples"`
			MemberOpFrames   uint64 `json:"member_op_frames"`
			MatchesDelivered uint64 `json:"matches_delivered"`
			MatchesDropped   uint64 `json:"matches_dropped"`
			ProtocolErrors   uint64 `json:"protocol_errors"`
			Draining         bool   `json:"draining"`
		} `json:"server"`
	}{
		Mode:                s.eng.Mode().String(),
		Tuples:              st.Tuples,
		Matches:             st.Matches,
		ElapsedSeconds:      st.Elapsed.Seconds(),
		Mtps:                st.Mtps,
		MigratedTuples:      st.MigratedTuples,
		LateDropped:         st.LateDropped,
		MaxObservedDisorder: st.MaxObservedDisorder,
		Imbalance:           st.Imbalance,
		AllocObjects:        st.AllocObjects,
		AllocBytes:          st.AllocBytes,
		AllocsPerTuple:      st.AllocsPerTuple,
		BytesPerTuple:       st.BytesPerTuple,
		GCCycles:            st.GCCycles,
		GCPauseSeconds:      st.GCPauseTotal.Seconds(),
		Shards:              shards,
	}
	if ws, ok := s.walStats(); ok {
		payload.WAL = &walJSON{
			AppendedRecords: ws.AppendedRecords,
			AppendedBytes:   ws.AppendedBytes,
			Fsyncs:          ws.Fsyncs,
			Snapshots:       ws.Snapshots,
			SnapshotSeconds: float64(ws.SnapshotNanos) / 1e9,
			ReplayRecords:   ws.ReplayRecords,
			ReplaySeconds:   float64(ws.ReplayNanos) / 1e9,
			Truncations:     ws.Truncations,
			WriteErrors:     ws.WriteErrors,
		}
	}
	payload.Node.ID = s.opts.NodeID
	payload.Node.Role = s.opts.Role
	payload.Server.Connections = sv.Connections
	payload.Server.Subscribers = sv.Subscribers
	payload.Server.Members = sv.Members
	payload.Server.IngestFrames = sv.IngestFrames
	payload.Server.IngestTuples = sv.IngestTuples
	payload.Server.MemberOpFrames = sv.MemberOpFrames
	payload.Server.MatchesDelivered = sv.MatchesDelivered
	payload.Server.MatchesDropped = sv.MatchesDropped
	payload.Server.ProtocolErrors = sv.ProtocolErrors
	payload.Server.Draining = sv.Draining
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

// tuningJSON mirrors pimtree.Tuning with stable JSON names.
type tuningJSON struct {
	Mode          string `json:"mode"`
	Shards        int    `json:"shards"`
	BatchSize     int    `json:"batch_size"`
	QueueCapacity int    `json:"queue_capacity"`
	Reconfigures  int    `json:"reconfigures"`
	Reshapes      int    `json:"reshapes"`
}

// deltaJSON is the POST /tuning request body: the JSON shape of
// pimtree.Delta. Absent (zero) fields keep the current value.
type deltaJSON struct {
	Shards        int `json:"shards"`
	BatchSize     int `json:"batch_size"`
	QueueCapacity int `json:"queue_capacity"`
}

// handleTuning serves the control plane: GET returns the engine's live
// Tuning snapshot; POST applies a manual Delta through Engine.Reconfigure
// and returns the post-apply snapshot.
func (s *Server) handleTuning(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		// Fall through to the snapshot below.
	case http.MethodPost:
		var body deltaJSON
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			http.Error(w, fmt.Sprintf("bad delta: %v", err), http.StatusBadRequest)
			return
		}
		d := pimtree.Delta{Shards: body.Shards, BatchSize: body.BatchSize, QueueCapacity: body.QueueCapacity}
		if err := s.eng.Reconfigure(d); err != nil {
			code := http.StatusUnprocessableEntity
			if errors.Is(err, pimtree.ErrClosed) || errors.Is(err, pimtree.ErrAborted) {
				code = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), code)
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t := s.eng.Tuning()
	payload := tuningJSON{
		Mode:          t.Mode.String(),
		Shards:        t.Shards,
		BatchSize:     t.BatchSize,
		QueueCapacity: t.QueueCapacity,
		Reconfigures:  t.Reconfigures,
		Reshapes:      t.Reshapes,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(payload)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteProm(w, s.promFamilies())
}

// promFamilies builds the /metrics exposition. Every family here is
// documented in docs/OPERATIONS.md; keep the two in sync.
func (s *Server) promFamilies() []metrics.PromFamily {
	st := s.eng.Stats()
	sv := s.Stats()
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	info := metrics.PromFamily{Name: "pimtree_node_info", Help: "Node identity; the value is always 1, the identity lives in the labels.", Type: "gauge"}
	info.Samples = append(info.Samples, metrics.PromSample{
		Labels: [][2]string{{"node", s.opts.NodeID}, {"role", s.opts.Role}},
		Value:  1,
	})
	fams := []metrics.PromFamily{
		info,
		metrics.Counter("pimtree_engine_tuples_total", "Tuples admitted by the engine runtime.", float64(st.Tuples)),
		metrics.Counter("pimtree_engine_matches_total", "Matches propagated in arrival order.", float64(st.Matches)),
		metrics.Gauge("pimtree_engine_uptime_seconds", "Wall time since the engine session opened.", st.Elapsed.Seconds()),
		metrics.Gauge("pimtree_engine_throughput_mtps", "Session-average throughput in million tuples per second.", st.Mtps),
		metrics.Counter("pimtree_engine_migrated_tuples_total", "Window tuples moved between shards by reshape epochs.", float64(st.MigratedTuples)),
		metrics.Counter("pimtree_engine_late_dropped_total", "Tuples later than Slack dropped by the reorder buffer.", float64(st.LateDropped)),
		metrics.Gauge("pimtree_engine_max_observed_disorder", "Largest observed event-time lateness in timestamp units.", float64(st.MaxObservedDisorder)),
		metrics.Gauge("pimtree_engine_shard_imbalance", "Load-imbalance ratio max(shard)/mean(shard); 0 when unsharded or idle.", st.Imbalance),
		metrics.Counter("pimtree_engine_alloc_objects_total", "Heap objects allocated process-wide since the engine session opened.", float64(st.AllocObjects)),
		metrics.Counter("pimtree_engine_alloc_bytes_total", "Heap bytes allocated process-wide since the engine session opened.", float64(st.AllocBytes)),
		metrics.Gauge("pimtree_engine_allocs_per_tuple", "Session-average heap objects allocated per admitted tuple.", st.AllocsPerTuple),
		metrics.Gauge("pimtree_engine_alloc_bytes_per_tuple", "Session-average heap bytes allocated per admitted tuple.", st.BytesPerTuple),
		metrics.Counter("pimtree_engine_gc_cycles_total", "GC cycles completed since the engine session opened.", float64(st.GCCycles)),
		metrics.Counter("pimtree_engine_gc_pause_seconds_total", "Approximate total GC stop-the-world pause time since the engine session opened.", st.GCPauseTotal.Seconds()),
	}
	tn := s.eng.Tuning()
	fams = append(fams,
		metrics.Counter("pimtree_engine_reconfigures_total", "Applied Reconfigure deltas.", float64(tn.Reconfigures)),
		metrics.Counter("pimtree_shard_reshapes_total", "Shard-layer reshape epochs completed.", float64(tn.Reshapes)),
		metrics.Gauge("pimtree_tune_shards", "Live shard count (0 outside the sharded modes).", float64(tn.Shards)),
		metrics.Gauge("pimtree_tune_batch_size", "Currently applied routed-ops-per-batch bound.", float64(tn.BatchSize)),
		metrics.Gauge("pimtree_tune_queue_capacity", "Currently applied in-flight ring bound.", float64(tn.QueueCapacity)),
	)
	if ws, ok := s.walStats(); ok {
		fams = append(fams,
			metrics.Counter("pimtree_wal_appended_records_total", "Records appended across all WAL lanes.", float64(ws.AppendedRecords)),
			metrics.Counter("pimtree_wal_appended_bytes_total", "Framed bytes written to WAL segment files.", float64(ws.AppendedBytes)),
			metrics.Counter("pimtree_wal_fsyncs_total", "Segment and snapshot fsyncs issued by the WAL.", float64(ws.Fsyncs)),
			metrics.Counter("pimtree_wal_snapshots_total", "Compacting window snapshots written.", float64(ws.Snapshots)),
			metrics.Counter("pimtree_wal_snapshot_seconds_total", "Cumulative wall time spent writing snapshots.", float64(ws.SnapshotNanos)/1e9),
			metrics.Counter("pimtree_wal_replay_records_total", "Records read during recovery at startup.", float64(ws.ReplayRecords)),
			metrics.Counter("pimtree_wal_replay_seconds_total", "Wall time of WAL recovery at startup.", float64(ws.ReplayNanos)/1e9),
			metrics.Counter("pimtree_wal_truncations_total", "Corruption events survived by recovery (truncated lanes, rejected snapshots).", float64(ws.Truncations)),
			metrics.Counter("pimtree_wal_write_errors_total", "WAL appends or fsyncs abandoned after a filesystem error.", float64(ws.WriteErrors)),
		)
	}
	if loads := s.eng.ShardLoads(); len(loads) > 0 {
		qd := metrics.PromFamily{Name: "pimtree_shard_queue_depth", Help: "Op batches pending in the shard's queue.", Type: "gauge"}
		qhw := metrics.PromFamily{Name: "pimtree_shard_queue_depth_high_water", Help: "Deepest queue depth observed on the shard since it was (re)created; reshapes start fresh marks.", Type: "gauge"}
		res := metrics.PromFamily{Name: "pimtree_shard_resident_tuples", Help: "Tuples currently resident in the shard's windows.", Type: "gauge"}
		for i, l := range loads {
			lbl := [][2]string{{"shard", strconv.Itoa(i)}}
			qd.Samples = append(qd.Samples, metrics.PromSample{Labels: lbl, Value: float64(l.QueueDepth)})
			qhw.Samples = append(qhw.Samples, metrics.PromSample{Labels: lbl, Value: float64(l.QueueHW)})
			res.Samples = append(res.Samples, metrics.PromSample{Labels: lbl, Value: float64(l.Resident)})
		}
		fams = append(fams, qd, qhw, res)
	}
	fams = append(fams,
		metrics.Gauge("pimtree_server_connections", "Open protocol connections.", float64(sv.Connections)),
		metrics.Gauge("pimtree_server_subscribers", "Connections subscribed to match egress.", float64(sv.Subscribers)),
		metrics.Counter("pimtree_server_ingest_frames_total", "Ingest frames accepted.", float64(sv.IngestFrames)),
		metrics.Counter("pimtree_server_ingest_tuples_total", "Tuples pushed into the engine over the wire.", float64(sv.IngestTuples)),
		metrics.Counter("pimtree_server_matches_delivered_total", "Matches handed to subscriber queues.", float64(sv.MatchesDelivered)),
		metrics.Counter("pimtree_server_matches_dropped_total", "Matches dropped by the DropNewest slow-subscriber policy.", float64(sv.MatchesDropped)),
		metrics.Counter("pimtree_server_protocol_errors_total", "Connections failed for protocol violations.", float64(sv.ProtocolErrors)),
		metrics.Gauge("pimtree_server_draining", "1 while a graceful shutdown is in progress.", b(sv.Draining)),
		metrics.Gauge("pimtree_server_members", "Open cluster member sessions.", float64(sv.Members)),
		metrics.Counter("pimtree_server_member_op_frames_total", "Cluster ops frames applied by member sessions.", float64(sv.MemberOpFrames)),
	)
	if s.opts.ExtraProm != nil {
		fams = append(fams, s.opts.ExtraProm()...)
	}
	return fams
}
