package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pimtree"
)

// matchCoalesce bounds the matches in one fan-out chunk and in one
// FrameMatch: large enough to amortize the queue handoff and framing on a
// busy stream, small enough to keep frames far below any MaxFrame a client
// might enforce.
const matchCoalesce = 512

// matchChunks recycles the chunks that carry matches from the fan-out to a
// connection's writer: each subscriber queue gets its own copy, and the
// writer returns the chunk once its matches are encoded. Pointers to slices
// are pooled so Put itself does not allocate a box.
var matchChunks = sync.Pool{New: func() any {
	ch := make([]pimtree.Match, 0, matchCoalesce)
	return &ch
}}

// outItem is one unit of outbound work for a connection's writer: a chunk
// of matches (folded with queued neighbours into FrameMatch frames), a
// member session's result groups (folded likewise into FrameResults), or a
// control frame.
type outItem struct {
	typ     byte
	chunk   *[]pimtree.Match // FrameMatch: a pooled chunk, owned by the queue
	payload []byte           // every other frame type
}

// conn is one protocol connection. The reader goroutine owns the inbound
// half (handshake, ingest, drain requests); the writer goroutine owns the
// outbound half, fed exclusively through the connection's queue so control
// frames and fan-out matches interleave in enqueue order.
type conn struct {
	srv *Server
	nc  net.Conn

	// The outbound queue, in enqueue order, guarded by mu. It is bounded
	// twice over by limit (Options.SubscriberQueue): once in matches, once in
	// other items. The writer takes everything queued in one step and hands
	// back each item's share once it is encoded, which wakes room's waiters;
	// ready (one slot) wakes the writer when the queue turns non-empty.
	mu      sync.Mutex
	room    sync.Cond
	items   []outItem
	matches int  // matches queued, or taken and not yet encoded
	others  int  // other items queued, or taken and not yet written
	limit   int  // the bound on matches and, separately, on other items
	closed  bool // set under mu by close, so no waiter misses it
	ready   chan struct{}

	done        chan struct{} // hard close: writer and enqueuers give up
	closeWrites chan struct{} // graceful close: writer writes what is queued, flushes, exits
	writerDone  chan struct{}
	readerDone  chan struct{}

	closeOnce    sync.Once
	gracefulOnce sync.Once
	subscribed   atomic.Bool
	// failed marks a connection that died on an error (not a clean close):
	// the producer loop discards its still-queued ingest, so nothing is
	// applied past the reported failure point.
	failed atomic.Bool
	timed  bool
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv:         s,
		nc:          nc,
		limit:       s.opts.SubscriberQueue,
		ready:       make(chan struct{}, 1),
		done:        make(chan struct{}),
		closeWrites: make(chan struct{}),
		writerDone:  make(chan struct{}),
		readerDone:  make(chan struct{}),
	}
	c.room.L = &c.mu
	return c
}

// close hard-closes the connection: enqueuers give up (waiters included),
// the TCP socket dies (unblocking the reader), the writer gives up, and the
// registry forgets the connection.
func (c *conn) close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.room.Broadcast()
		close(c.done)
		c.nc.Close()
		c.srv.removeConn(c)
	})
}

// closeGraceful asks the writer to flush everything already enqueued and
// exit; the caller hard-closes afterwards.
func (c *conn) closeGraceful() {
	c.gracefulOnce.Do(func() { close(c.closeWrites) })
}

// send enqueues a control or results item, waiting while limit of them are
// queued. It reports false when the connection closed first.
func (c *conn) send(it outItem) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.others >= c.limit && !c.closed {
		c.room.Wait()
	}
	if c.closed {
		return false
	}
	c.others++
	c.pushLocked(it)
	return true
}

// deliver offers one chunk of at most matchCoalesce matches under the
// slow-subscriber policy. The chunk is taken whole while fewer than limit
// matches are queued, so the queue overshoots by less than one chunk, and
// is refused whole otherwise — or, with block, once the writer has made
// room. The matches are copied: first into the spare room of a chunk at the
// queue's tail, then into a fresh pooled chunk, so a queue holds about
// limit/matchCoalesce chunks however short the runs it is fed. It reports
// whether the matches were queued.
func (c *conn) deliver(ms []pimtree.Match, block bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for block && c.matches >= c.limit && !c.closed {
		c.room.Wait()
	}
	if c.closed || c.matches >= c.limit {
		return false
	}
	c.matches += len(ms)
	if n := len(c.items); n > 0 && c.items[n-1].typ == FrameMatch {
		tail := c.items[n-1].chunk
		k := min(len(ms), cap(*tail)-len(*tail))
		*tail = append(*tail, ms[:k]...)
		ms = ms[k:]
	}
	if len(ms) > 0 {
		ch := matchChunks.Get().(*[]pimtree.Match)
		*ch = append((*ch)[:0], ms...)
		c.pushLocked(outItem{typ: FrameMatch, chunk: ch})
	}
	return true
}

// pushLocked appends an item (mu held) and wakes the writer when the queue
// was empty; a non-empty queue already has a wake-up pending, or the writer
// will take it before it next waits.
func (c *conn) pushLocked(it outItem) {
	if len(c.items) == 0 {
		select {
		case c.ready <- struct{}{}:
		default:
		}
	}
	c.items = append(c.items, it)
}

// take hands the writer everything queued, leaving spare (cleared, so it
// keeps no payload alive) as the new queue: the two slices alternate and
// neither reallocates once grown.
func (c *conn) take(spare []outItem) []outItem {
	clear(spare)
	c.mu.Lock()
	items := c.items
	c.items = spare[:0]
	c.mu.Unlock()
	return items
}

// release gives back an encoded item's share of the queue bound, waking
// anyone waiting for room, and recycles its chunk.
func (c *conn) release(it outItem) {
	c.mu.Lock()
	if it.chunk != nil {
		c.matches -= len(*it.chunk)
	} else {
		c.others--
	}
	c.mu.Unlock()
	c.room.Broadcast()
	if it.chunk != nil {
		matchChunks.Put(it.chunk)
	}
}

// abort fails the connection for a protocol or engine-level error: the error
// frame is queued even past the bound (one item — waiting for room behind a
// wedged peer must not pin this goroutine), then, off the caller's goroutine
// and inside one 2 s budget, a wait for the writer to flush it, a half-close,
// a linger while the reader discards what the peer pipelined behind the
// failure, and the hard close. The linger is what lets the peer read the
// error frame: closing a socket with unread inbound bytes (or having more
// arrive afterwards) sends a reset, which can overtake or discard the frame
// on the peer's side.
func (c *conn) abort(msg string) {
	c.failed.Store(true)
	c.srv.protoErrs.Add(1)
	c.mu.Lock()
	if !c.closed {
		c.others++
		c.pushLocked(outItem{typ: FrameError, payload: []byte(msg)})
	}
	c.mu.Unlock()
	c.closeGraceful()
	go func() {
		budget := time.After(2 * time.Second)
		select {
		case <-c.writerDone:
		case <-budget:
		}
		if hc, ok := c.nc.(interface{ CloseWrite() error }); ok {
			hc.CloseWrite() // error ignored: the hard close below follows either way
		}
		select {
		case <-c.readerDone: // the peer closed its side, or the socket died
		case <-budget:
		}
		c.close()
	}()
}

// reader owns the inbound half of the connection: it serves frames until
// the peer finishes or the connection fails, and after a failure keeps
// discarding inbound bytes until abort's hard close (see there).
func (c *conn) reader() {
	defer c.srv.readerWg.Done()
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.nc, 1<<16)
	c.serve(br)
	if c.failed.Load() {
		io.Copy(io.Discard, br) // ends at the peer's EOF or the hard close
	}
}

// serve runs the handshake and the ingest loop. The frame payload buffer is
// per-connection (readFrameInto) and decoded batches come from the arrival
// pool, so steady-state ingest reads without allocating.
func (c *conn) serve(br *bufio.Reader) {
	if ok := c.handshake(br); !ok {
		return
	}
	var rbuf []byte
	for {
		typ, payload, err := readFrameInto(br, c.srv.opts.MaxFrame, &rbuf)
		switch {
		case err == io.EOF:
			// Clean end of ingest. A subscriber keeps receiving matches
			// until it closes its side or the server shuts down; a pure
			// ingest connection is finished.
			if !c.subscribed.Load() {
				c.close()
			}
			return
		case err != nil:
			if isNetErr(err) {
				c.close() // peer vanished; nothing to report to it
			} else {
				c.abort(err.Error())
			}
			return
		}
		switch typ {
		case FrameIngest:
			bp := getArrivalBatch()
			batch, derr := decodeArrivalsInto((*bp)[:0], payload, c.timed)
			if derr != nil {
				putArrivalBatch(bp)
				c.abort(derr.Error())
				return
			}
			*bp = batch
			c.srv.ingestFrames.Add(1)
			if len(batch) == 0 {
				putArrivalBatch(bp)
				continue
			}
			if serr := c.srv.submit(ingestReq{c: c, batch: bp}); serr != nil {
				putArrivalBatch(bp)
				if errors.Is(serr, errDraining) {
					c.abort(serr.Error())
				} else {
					c.close()
				}
				return
			}
		case FrameDrain:
			if serr := c.srv.submit(ingestReq{c: c, drain: true}); serr != nil {
				if errors.Is(serr, errDraining) {
					c.abort(serr.Error())
				} else {
					c.close()
				}
				return
			}
		default:
			c.abort(fmt.Sprintf("unexpected %s frame", frameName(typ)))
			return
		}
	}
}

// handshake consumes and validates the client's Hello, acknowledges it, and
// registers the subscription. The acknowledgement is enqueued before the
// subscription exists, so the client always sees hello-ack before the first
// match.
func (c *conn) handshake(br *bufio.Reader) bool {
	typ, payload, err := readFrame(br, c.srv.opts.MaxFrame)
	if err != nil {
		if isNetErr(err) || err == io.EOF {
			c.close()
		} else {
			c.abort(err.Error())
		}
		return false
	}
	if typ == FrameJoinCluster {
		// A cluster router, not a client: the connection becomes a member
		// session for its remaining lifetime (see member.go).
		c.memberSession(br, payload)
		return false
	}
	if typ != FrameHello {
		c.abort(fmt.Sprintf("first frame must be hello or join-cluster, got %s", frameName(typ)))
		return false
	}
	version, flags, err := decodeHello(payload)
	if err != nil {
		c.abort(err.Error())
		return false
	}
	if version != ProtocolVersion {
		c.abort(fmt.Sprintf("unsupported protocol version %d (server speaks %d)", version, ProtocolVersion))
		return false
	}
	if unknown := flags &^ (FlagSubscribe | FlagTimed); unknown != 0 {
		c.abort(fmt.Sprintf("unknown hello flags 0x%02x", unknown))
		return false
	}
	timed := flags&FlagTimed != 0
	if timed != c.srv.timed {
		if c.srv.timed {
			c.abort(fmt.Sprintf("engine runs %s: hello must set the timed flag and arrivals must carry timestamps", pimtree.ModeShardedTime))
		} else {
			c.abort("timed flag set but the engine runs count-based windows")
		}
		return false
	}
	if flags&FlagSubscribe != 0 && !c.srv.fanout {
		c.abort("engine discards matches (DiscardMatches); match subscription unavailable")
		return false
	}
	c.timed = timed
	if !c.send(outItem{typ: FrameHello, payload: encodeHello(ProtocolVersion, flags)}) {
		return false
	}
	if flags&FlagSubscribe != 0 {
		c.subscribed.Store(true)
		c.srv.addSub(c)
	}
	return true
}

// writer owns the outbound half: it takes everything queued, encodes it in
// order, and flushes whenever the queue goes idle. After a graceful close it
// writes what is still queued, flushes, and exits.
func (c *conn) writer() {
	defer c.srv.writerWg.Done()
	defer close(c.writerDone)
	w := newFrameWriter(c.nc, c.srv.opts.MaxFrame)
	var items []outItem
	closing := false
	for {
		items = c.take(items)
		if len(items) > 0 {
			if err := c.writeItems(w, items); err != nil {
				c.close()
				return
			}
			continue
		}
		if err := w.flush(); err != nil {
			c.close()
			return
		}
		if closing {
			return
		}
		select {
		case <-c.ready:
		case <-c.closeWrites:
			closing = true
		case <-c.done:
			return
		}
	}
}

// writeItems encodes taken items in queue order, releasing each one's share
// of the queue bound as soon as it is encoded.
func (c *conn) writeItems(w *frameWriter, items []outItem) error {
	for _, it := range items {
		if err := w.writeItem(it); err != nil {
			return err
		}
		c.release(it)
	}
	return nil
}

// frameWriter is a connection writer's encoder. Runs of match chunks fold
// into FrameMatch frames of up to coalesce records, and runs of result
// groups into one FrameResults frame (the groups are self-delimiting, so
// concatenated payloads remain one valid results payload). The open frame is
// assembled header and all in one reusable buffer and written with a single
// Write: writeFrame's stack header escapes through the io.Writer interface,
// which would put one allocation on every frame. Any other item ends the open
// frame and is written right after it, so queue order is wire order.
type frameWriter struct {
	bw       *bufio.Writer
	buf      []byte // the open frame, header included; empty when none is open
	coalesce int    // records per match frame
	maxFrame int
}

func newFrameWriter(dst io.Writer, maxFrame int) *frameWriter {
	// Outbound frames obey the same payload bound the server enforces
	// inbound, so a peer applying a symmetric limit never rejects them.
	coalesce := max(min(matchCoalesce, maxFrame/recMatch), 1)
	return &frameWriter{
		bw:       bufio.NewWriterSize(dst, 1<<16),
		buf:      make([]byte, 0, headerLen+coalesce*recMatch),
		coalesce: coalesce,
		maxFrame: maxFrame,
	}
}

// writeItem encodes one item into the open frame, or after it.
func (w *frameWriter) writeItem(it outItem) error {
	switch it.typ {
	case FrameMatch:
		full := headerLen + w.coalesce*recMatch
		for _, m := range *it.chunk {
			if len(w.buf) == 0 || w.buf[4] != FrameMatch || len(w.buf) == full {
				if err := w.open(FrameMatch); err != nil {
					return err
				}
			}
			w.buf = appendMatch(w.buf, m)
		}
		return nil
	case FrameResults:
		n := len(w.buf) - headerLen
		if len(w.buf) == 0 || w.buf[4] != FrameResults ||
			n >= min(w.maxFrame, 64<<10) || n+len(it.payload) > w.maxFrame {
			if err := w.open(FrameResults); err != nil {
				return err
			}
		}
		w.buf = append(w.buf, it.payload...)
		return nil
	default:
		if err := w.end(); err != nil {
			return err
		}
		return writeFrame(w.bw, it.typ, it.payload)
	}
}

// open ends the open frame, if any, and starts an empty one of type typ.
func (w *frameWriter) open(typ byte) error {
	if err := w.end(); err != nil {
		return err
	}
	w.buf = append(w.buf, 0, 0, 0, 0, typ) // length patched by end
	return nil
}

// end patches the open frame's length and writes it out.
func (w *frameWriter) end() error {
	if len(w.buf) == 0 {
		return nil
	}
	binary.BigEndian.PutUint32(w.buf[:4], uint32(len(w.buf)-headerLen))
	_, err := w.bw.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// flush ends the open frame and puts everything written on the wire.
func (w *frameWriter) flush() error {
	if err := w.end(); err != nil {
		return err
	}
	return w.bw.Flush()
}

// isNetErr reports whether err is a transport-level failure (closed or
// broken connection) rather than a protocol violation worth reporting back.
func isNetErr(err error) bool {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
