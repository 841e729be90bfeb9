package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// MemberClient is the router side of a member session (internal/cluster's
// node transport): it opens the connection with FrameJoinCluster, ships op
// batches, and surfaces the node's result/status/handoff frames through
// ReadNodeEvent. Writes (SendOps, Ping, Reassign) are serialized by the
// embedded write lock, so they may come from any goroutines and interleave
// freely; ReadNodeEvent must be called from one goroutine.
type MemberClient struct {
	nc   net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex
	wbuf []byte

	maxFrame     int
	writeTimeout time.Duration
	nodeID       string
}

// MemberDialOptions configures DialMember.
type MemberDialOptions struct {
	// Timeout bounds the dial and the join handshake round-trip (default
	// 10s).
	Timeout time.Duration
	// WriteTimeout, when positive, bounds each outbound frame write — a
	// wedged node then surfaces as a net timeout instead of blocking the
	// router forever.
	WriteTimeout time.Duration
	// MaxFrame bounds payloads both ways (default DefaultMaxFrame).
	MaxFrame int
}

// DialMember connects to a serve node and opens a member session shaped by
// cfg. The ctx cancels the dial and the handshake (not the session).
func DialMember(ctx context.Context, addr string, cfg ClusterConfig, o MemberDialOptions) (*MemberClient, error) {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = DefaultMaxFrame
	}
	d := net.Dialer{Timeout: o.Timeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	m := &MemberClient{
		nc: nc, br: bufio.NewReaderSize(nc, 1<<16),
		maxFrame: o.MaxFrame, writeTimeout: o.WriteTimeout,
	}
	nc.SetDeadline(time.Now().Add(o.Timeout))
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	fail := func(err error) (*MemberClient, error) {
		nc.Close()
		if ctx.Err() != nil {
			return nil, fmt.Errorf("member handshake %s: %w", addr, ctx.Err())
		}
		return nil, fmt.Errorf("member handshake %s: %w", addr, err)
	}
	if err := writeFrame(nc, FrameJoinCluster, encodeJoinCluster(ProtocolVersion, cfg)); err != nil {
		return fail(err)
	}
	typ, payload, err := readFrame(m.br, m.maxFrame)
	if err != nil {
		return fail(err)
	}
	switch typ {
	case FrameClusterReady:
		version, id, derr := decodeClusterReady(payload)
		if derr != nil {
			return fail(derr)
		}
		if version != ProtocolVersion {
			return fail(fmt.Errorf("node speaks protocol version %d, router speaks %d", version, ProtocolVersion))
		}
		m.nodeID = id
	case FrameError:
		nc.Close()
		return nil, fmt.Errorf("node %s rejected member session: %s", addr, payload)
	default:
		return fail(fmt.Errorf("unexpected %s frame", frameName(typ)))
	}
	if !stop() {
		nc.Close()
		return nil, fmt.Errorf("member handshake %s: %w", addr, ctx.Err())
	}
	nc.SetDeadline(time.Time{})
	return m, nil
}

// NodeID returns the node's self-reported identity from the handshake.
func (m *MemberClient) NodeID() string { return m.nodeID }

// send writes one frame under the write lock and deadline.
func (m *MemberClient) send(typ byte, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.writeTimeout > 0 {
		m.nc.SetWriteDeadline(time.Now().Add(m.writeTimeout))
	}
	return writeFrame(m.nc, typ, payload)
}

// SendOps ships one op batch, splitting frames at the payload bound.
func (m *MemberClient) SendOps(ops []shard.Op) error {
	if len(ops) == 0 {
		return nil
	}
	perFrame := max(m.maxFrame/recOp, 1)
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.writeTimeout > 0 {
		m.nc.SetWriteDeadline(time.Now().Add(m.writeTimeout))
	}
	for lo := 0; lo < len(ops); lo += perFrame {
		hi := min(lo+perFrame, len(ops))
		buf := m.wbuf[:0]
		for _, o := range ops[lo:hi] {
			buf = appendOp(buf, o)
		}
		m.wbuf = buf
		if err := writeFrame(m.nc, FrameOps, buf); err != nil {
			return err
		}
	}
	return nil
}

// Ping requests a FrameNodeStatus heartbeat.
func (m *MemberClient) Ping() error { return m.send(FramePing, nil) }

// Reassign sends the router's half of a reassign exchange: the imports as
// window batches, then the member's position in a map of nodes. The reply,
// window batches of what the member hands back then FrameReassigned, arrives
// through ReadNodeEvent.
func (m *MemberClient) Reassign(pos, nodes int, imports []wal.Tuple) error {
	return sendHandoff(m.send, m.maxFrame, imports, FrameReassign, encodeReassign(pos, nodes, uint64(len(imports))))
}

// ProbeResult is one decoded result group: the router's correlation id and
// the matched global sequences, in key-range order.
type ProbeResult struct {
	Idx  uint64
	Seqs []uint64
}

// NodeEvent is one node-to-router frame surfaced by ReadNodeEvent.
type NodeEvent struct {
	// Type is FrameResults, FrameNodeStatus, FrameWindow, FrameReassigned,
	// or FrameError.
	Type    byte
	Results []ProbeResult // FrameResults
	Status  NodeStatus    // FrameNodeStatus
	Window  []wal.Tuple   // FrameWindow
	Count   uint64        // FrameReassigned
	Err     string        // FrameError
}

// ReadNodeEvent reads and decodes the next node-to-router frame. io.EOF
// means the node closed the stream.
func (m *MemberClient) ReadNodeEvent() (NodeEvent, error) {
	typ, payload, err := readFrame(m.br, m.maxFrame)
	if err != nil {
		return NodeEvent{}, err
	}
	switch typ {
	case FrameResults:
		var rs []ProbeResult
		if err := decodeResults(payload, func(idx uint64, seqs []uint64) error {
			rs = append(rs, ProbeResult{Idx: idx, Seqs: seqs})
			return nil
		}); err != nil {
			return NodeEvent{}, err
		}
		return NodeEvent{Type: FrameResults, Results: rs}, nil
	case FrameNodeStatus:
		st, err := decodeNodeStatus(payload)
		if err != nil {
			return NodeEvent{}, err
		}
		return NodeEvent{Type: FrameNodeStatus, Status: st}, nil
	case FrameWindow:
		w, err := decodeWindowTuples(nil, payload)
		if err != nil {
			return NodeEvent{}, err
		}
		return NodeEvent{Type: FrameWindow, Window: w}, nil
	case FrameReassigned:
		n, err := decodeCount(payload)
		if err != nil {
			return NodeEvent{}, err
		}
		return NodeEvent{Type: FrameReassigned, Count: n}, nil
	case FrameError:
		return NodeEvent{Type: FrameError, Err: string(payload)}, nil
	default:
		return NodeEvent{}, fmt.Errorf("unexpected %s frame from node", frameName(typ))
	}
}

// Close closes the connection (ending the member session; the node drops
// the member runtime and its window contents).
func (m *MemberClient) Close() error { return m.nc.Close() }
