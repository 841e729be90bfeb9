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

// matchCoalesce bounds how many queued matches the writer folds into one
// FrameMatch: large enough to amortize framing on a busy stream, small
// enough to keep frames far below any MaxFrame a client might enforce.
const matchCoalesce = 512

// outItem is one unit of outbound work for a connection's writer: a match
// (coalesced with queued neighbours into one frame) or a control frame.
type outItem struct {
	typ     byte
	m       pimtree.Match // valid when typ == FrameMatch
	payload []byte        // control-frame payload
}

// conn is one protocol connection. The reader goroutine owns the inbound
// half (handshake, ingest, drain requests); the writer goroutine owns the
// outbound half, fed exclusively through the bounded out channel so control
// frames and fan-out matches interleave in enqueue order.
type conn struct {
	srv *Server
	nc  net.Conn

	out         chan outItem
	done        chan struct{} // hard close: writer and enqueuers give up
	closeWrites chan struct{} // graceful close: writer drains out, flushes, exits
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
	return &conn{
		srv:         s,
		nc:          nc,
		out:         make(chan outItem, s.opts.SubscriberQueue),
		done:        make(chan struct{}),
		closeWrites: make(chan struct{}),
		writerDone:  make(chan struct{}),
		readerDone:  make(chan struct{}),
	}
}

// close hard-closes the connection: the TCP socket dies (unblocking the
// reader), the writer gives up, and the registry forgets the connection.
func (c *conn) close() {
	c.closeOnce.Do(func() {
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

// send enqueues a control frame, blocking until there is queue space. It
// reports false when the connection closed first.
func (c *conn) send(it outItem) bool {
	select {
	case c.out <- it:
		return true
	case <-c.done:
		return false
	}
}

// deliver offers one match under the slow-subscriber policy. It reports
// whether the match entered the queue.
func (c *conn) deliver(m pimtree.Match, block bool) bool {
	it := outItem{typ: FrameMatch, m: m}
	if block {
		select {
		case c.out <- it:
			return true
		case <-c.done:
			return false
		}
	}
	select {
	case c.out <- it:
		return true
	case <-c.done:
		return false
	default:
		return false
	}
}

// abort fails the connection for a protocol or engine-level error: best
// effort error frame (bounded — a wedged peer whose queue is full must not
// pin this goroutine), then, off the caller's goroutine and inside one 2 s
// budget, a wait for the writer to flush it, a half-close, a linger while the
// reader discards what the peer pipelined behind the failure, and the hard
// close. The linger is what lets the peer read the error frame: closing a
// socket with unread inbound bytes (or having more arrive afterwards) sends
// a reset, which can overtake or discard the frame on the peer's side.
func (c *conn) abort(msg string) {
	c.failed.Store(true)
	c.srv.protoErrs.Add(1)
	select {
	case c.out <- outItem{typ: FrameError, payload: []byte(msg)}:
	case <-c.done:
	case <-time.After(time.Second):
	}
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

// writer owns the outbound half: it serializes queued items into frames,
// coalescing runs of matches, and flushes whenever the queue goes idle.
func (c *conn) writer() {
	defer c.srv.writerWg.Done()
	defer close(c.writerDone)
	bw := bufio.NewWriterSize(c.nc, 1<<16)
	// Outbound frames obey the same payload bound the server enforces
	// inbound, so a peer applying a symmetric limit never rejects them.
	coalesce := min(matchCoalesce, c.srv.opts.MaxFrame/recMatch)
	if coalesce < 1 {
		coalesce = 1
	}
	scratch := make([]byte, 0, headerLen+coalesce*recMatch)
	emit := func(it outItem) bool {
		if err := c.writeItem(bw, it, &scratch, coalesce); err != nil {
			c.close()
			return false
		}
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				c.close()
				return false
			}
		}
		return true
	}
	for {
		select {
		case it := <-c.out:
			if !emit(it) {
				return
			}
		case <-c.closeWrites:
			for {
				select {
				case it := <-c.out:
					if !emit(it) {
						return
					}
				default:
					bw.Flush()
					return
				}
			}
		case <-c.done:
			return
		}
	}
}

// writeItem writes one queued item. A match pulls queued neighbours into
// the same frame (up to the coalesce bound); a control item that interrupts
// the run is written right after the match frame, preserving queue order.
// The match frame is assembled header-and-all in the scratch buffer and
// written with a single Write: writeFrame's stack header escapes through
// the io.Writer interface, which would put one allocation on every frame.
func (c *conn) writeItem(bw *bufio.Writer, it outItem, scratch *[]byte, coalesce int) error {
	if it.typ == FrameResults {
		return c.writeResults(bw, it, scratch, coalesce)
	}
	if it.typ != FrameMatch {
		return writeFrame(bw, it.typ, it.payload)
	}
	buf := (*scratch)[:0]
	buf = append(buf, 0, 0, 0, 0, FrameMatch) // length patched below
	buf = appendMatch(buf, it.m)
	// tail is held by value: taking nx's address would make every dequeued
	// item escape to the heap, putting an allocation back on the per-match
	// path this coalescing exists to keep clean.
	var tail outItem
	hasTail := false
	for len(buf) < headerLen+coalesce*recMatch {
		select {
		case nx := <-c.out:
			if nx.typ == FrameMatch {
				buf = appendMatch(buf, nx.m)
				continue
			}
			tail = nx
			hasTail = true
		default:
		}
		break
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-headerLen))
	*scratch = buf
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if hasTail {
		return writeFrame(bw, tail.typ, tail.payload)
	}
	return nil
}

// writeResults writes one results item, folding queued result groups into
// the same frame (the member-session analogue of match coalescing — the
// groups are self-delimiting, so concatenated payloads remain one valid
// results payload). A non-result item that interrupts the run is written
// right after, preserving queue order.
func (c *conn) writeResults(bw *bufio.Writer, it outItem, scratch *[]byte, coalesce int) error {
	bound := min(c.srv.opts.MaxFrame, 64<<10)
	buf := (*scratch)[:0]
	buf = append(buf, 0, 0, 0, 0, FrameResults) // length patched below
	buf = append(buf, it.payload...)
	var tail outItem
	hasTail := false
	for len(buf)-headerLen < bound {
		select {
		case nx := <-c.out:
			if nx.typ == FrameResults && len(buf)-headerLen+len(nx.payload) <= c.srv.opts.MaxFrame {
				buf = append(buf, nx.payload...)
				continue
			}
			tail = nx
			hasTail = true
		default:
		}
		break
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-headerLen))
	*scratch = buf
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	if hasTail {
		// buf is already on the bufio buffer, so the scratch reuse inside a
		// recursive match/results write is safe. Depth is bounded: the tail
		// write pulls its own tail at most once more per queued run.
		return c.writeItem(bw, tail, scratch, coalesce)
	}
	return nil
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
