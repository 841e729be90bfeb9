// Package server is the network serving layer: a dependency-free TCP
// front end that wraps a long-lived pimtree.Engine behind a length-prefixed
// binary wire protocol (ingest in, matches out, drain acknowledgements),
// plus an HTTP admin endpoint exposing /stats (JSON), /metrics (Prometheus
// text exposition), and /healthz.
//
// The wire protocol is deliberately tiny — framing, five client-visible
// frame types, fixed-width records — and is specified normatively in
// docs/OPERATIONS.md. This file is its single encode/decode point, shared
// by the server and the Client.
//
// Framing: every frame is
//
//	[4-byte big-endian payload length][1-byte frame type][payload]
//
// The length covers the payload only (not the 5-byte header) and is bounded
// by each side's configured maximum (DefaultMaxFrame unless overridden —
// the bound is NOT negotiated, so a client must not be configured above
// the server); an oversized or unparseable frame is a protocol error,
// answered with FrameError and a closed connection.
package server

import (
	"encoding/binary"
	"fmt"
	"io"

	"pimtree"
)

// ProtocolVersion is the wire protocol version exchanged in Hello frames.
// A client whose version the server does not speak is rejected with an
// error frame before any other traffic.
const ProtocolVersion = 1

// Frame types. Direction is noted per type; a peer receiving a frame type
// it does not expect must treat it as a protocol error.
const (
	// FrameHello opens a connection (client→server, first frame, payload
	// [version byte][flags byte]) and acknowledges it (server→client, same
	// layout, echoing the accepted flags).
	FrameHello = byte(0x01)
	// FrameIngest carries a batch of arrivals (client→server). The payload
	// is a sequence of fixed-width records: 5 bytes ([stream][key]) on a
	// count-window connection, 13 bytes ([stream][key][ts]) on a timed one
	// (FlagTimed). A payload length that is not a whole multiple of the
	// record width is a protocol error.
	FrameIngest = byte(0x02)
	// FrameMatch carries a batch of matches (server→subscriber): a sequence
	// of 17-byte records [probe stream][probe seq][match seq].
	FrameMatch = byte(0x03)
	// FrameDrain asks the server to drain the engine to a quiescent point
	// (client→server, empty payload). The server answers with FrameDrained
	// once every tuple pushed before the drain has joined and its matches
	// have been handed to every subscriber queue; on a subscribing
	// connection the acknowledgement is ordered after those matches.
	FrameDrain = byte(0x04)
	// FrameDrained acknowledges a FrameDrain (server→client, empty payload).
	FrameDrained = byte(0x05)
	// FrameError reports a fatal connection error (server→client): the
	// payload is a UTF-8 message. The server closes the connection after
	// sending it.
	FrameError = byte(0x06)
)

// Cluster control frames (0x10–0x18) carry the router↔node leg of the
// distributed tier (internal/cluster): a cluster router opens a member
// session on a serve node with FrameJoinCluster instead of FrameHello, ships
// pre-sequenced ops, and receives correlated probe results plus status
// heartbeats. Membership-change window handoffs ride the same connection as
// reassign exchanges. These frames are additive — a v1 client/server
// pair that never speaks them is unaffected — and are specified normatively
// in docs/OPERATIONS.md alongside the client-visible frames.
const (
	// FrameJoinCluster opens a member session (router→node, first frame).
	// Payload: the 35-byte cluster join config (encodeJoinCluster). The
	// whole engine shape travels in the frame so every member applies ops
	// under identical parameters regardless of node-local flags.
	FrameJoinCluster = byte(0x10)
	// FrameClusterReady acknowledges a join (node→router). Payload:
	// [version u8][node id length u8][node id UTF-8].
	FrameClusterReady = byte(0x11)
	// FrameOps ships a batch of pre-sequenced ops (router→node): a sequence
	// of 34-byte records (appendOp).
	FrameOps = byte(0x12)
	// FrameResults returns completed probe results (node→router): a
	// sequence of variable-length groups [idx u64][n u32][n × match seq
	// u64], in the member's admission order.
	FrameResults = byte(0x13)
	// FrameNodeStatus is the member heartbeat (node→router), sent in
	// response to FramePing: [ops applied u64][evict watermark u64]
	// [resident u64].
	FrameNodeStatus = byte(0x14)
	// FramePing requests a FrameNodeStatus (router→node, empty payload).
	FramePing = byte(0x15)
	// FrameReassign ends the router's half of a reassign exchange
	// (router→node, after the FrameWindow batches of the imports):
	// [pos u32][nodes u32][import count u64]. The member keeps the tuples the
	// equal-width map over nodes assigns to pos (none when pos >= nodes) and
	// answers with FrameWindow batches of the rest, then FrameReassigned.
	FrameReassign = byte(0x16)
	// FrameWindow carries live window tuples during a handoff (both
	// directions): a sequence of 21-byte records [stream u8][key u32]
	// [seq u64][ts u64].
	FrameWindow = byte(0x17)
	// FrameReassigned ends the member's half of a reassign exchange
	// (node→router): [export count u64].
	FrameReassigned = byte(0x18)
)

// Hello flags.
const (
	// FlagSubscribe requests match egress: every match the engine propagates
	// after the subscription is delivered to this connection as FrameMatch
	// records, subject to the server's slow-subscriber policy.
	FlagSubscribe = byte(0x01)
	// FlagTimed declares timed ingest: arrivals carry an 8-byte event
	// timestamp. Required when the engine runs ModeShardedTime, rejected
	// otherwise.
	FlagTimed = byte(0x02)
)

// Record widths.
const (
	recCount = 5  // [stream u8][key u32be]
	recTimed = 13 // [stream u8][key u32be][ts u64be]
	recMatch = 17 // [probe stream u8][probe seq u64be][match seq u64be]
)

// DefaultMaxFrame bounds accepted payload lengths: large enough for ~100k
// arrivals per frame, small enough that a corrupt or hostile length prefix
// cannot make the server allocate unbounded memory.
const DefaultMaxFrame = 1 << 20

const headerLen = 5

// frameName names a frame type for error messages.
func frameName(typ byte) string {
	switch typ {
	case FrameHello:
		return "hello"
	case FrameIngest:
		return "ingest"
	case FrameMatch:
		return "match"
	case FrameDrain:
		return "drain"
	case FrameDrained:
		return "drained"
	case FrameError:
		return "error"
	case FrameJoinCluster:
		return "join-cluster"
	case FrameClusterReady:
		return "cluster-ready"
	case FrameOps:
		return "ops"
	case FrameResults:
		return "results"
	case FrameNodeStatus:
		return "node-status"
	case FramePing:
		return "ping"
	case FrameReassign:
		return "reassign"
	case FrameWindow:
		return "window"
	case FrameReassigned:
		return "reassigned"
	default:
		return fmt.Sprintf("0x%02x", typ)
	}
}

// writeFrame writes one frame. The payload may be nil (empty).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, rejecting payloads longer than max. io.EOF is
// returned only for a clean end-of-stream between frames; a connection cut
// mid-frame surfaces as io.ErrUnexpectedEOF. The payload is freshly
// allocated; steady-state readers use readFrameInto instead.
func readFrame(r io.Reader, max int) (typ byte, payload []byte, err error) {
	var scratch []byte
	return readFrameInto(r, max, &scratch)
}

// readFrameInto is readFrame with a caller-owned payload buffer: *buf is
// grown once to the largest payload seen and reused for every subsequent
// frame, so a connection's steady-state read path does not allocate. The
// returned payload aliases *buf and is valid only until the next call with
// the same buffer — callers must copy anything they retain (decodeArrivals
// already copies into records).
func readFrameInto(r io.Reader, max int, buf *[]byte) (typ byte, payload []byte, err error) {
	// The header is read into the reuse buffer too: a stack array passed
	// through the io.Reader interface escapes conservatively, which would
	// cost one allocation per frame. n and typ are extracted before the
	// payload read overwrites the same bytes.
	if cap(*buf) < headerLen {
		*buf = make([]byte, headerLen)
	}
	hdr := (*buf)[:headerLen]
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	typ = hdr[4]
	if int64(n) > int64(max) {
		return typ, nil, fmt.Errorf("%s frame payload %d bytes exceeds the %d-byte limit", frameName(typ), n, max)
	}
	if n == 0 {
		return typ, nil, nil
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return typ, nil, err
	}
	return typ, payload, nil
}

// encodeHello encodes a Hello payload.
func encodeHello(version, flags byte) []byte { return []byte{version, flags} }

// decodeHello decodes a Hello payload.
func decodeHello(payload []byte) (version, flags byte, err error) {
	if len(payload) != 2 {
		return 0, 0, fmt.Errorf("hello payload must be 2 bytes, got %d", len(payload))
	}
	return payload[0], payload[1], nil
}

// appendArrival appends one arrival record in the connection's layout.
func appendArrival(dst []byte, a pimtree.Arrival, timed bool) []byte {
	dst = append(dst, byte(a.Stream))
	dst = binary.BigEndian.AppendUint32(dst, a.Key)
	if timed {
		dst = binary.BigEndian.AppendUint64(dst, a.TS)
	}
	return dst
}

// encodeArrivals encodes a whole ingest payload.
func encodeArrivals(batch []pimtree.Arrival, timed bool) []byte {
	w := recCount
	if timed {
		w = recTimed
	}
	dst := make([]byte, 0, len(batch)*w)
	for _, a := range batch {
		dst = appendArrival(dst, a, timed)
	}
	return dst
}

// decodeArrivals decodes an ingest payload. Stream ids other than R and S
// are rejected — a corrupt byte must not silently alias a valid stream.
func decodeArrivals(payload []byte, timed bool) ([]pimtree.Arrival, error) {
	return decodeArrivalsInto(nil, payload, timed)
}

// decodeArrivalsInto is decodeArrivals appending into dst (pass a recycled
// slice at length 0 to decode without allocating in steady state).
func decodeArrivalsInto(dst []pimtree.Arrival, payload []byte, timed bool) ([]pimtree.Arrival, error) {
	w := recCount
	if timed {
		w = recTimed
	}
	if len(payload)%w != 0 {
		return nil, fmt.Errorf("ingest payload %d bytes is not a multiple of the %d-byte record", len(payload), w)
	}
	out := dst
	if cap(out)-len(out) < len(payload)/w {
		grown := make([]pimtree.Arrival, len(out), len(out)+len(payload)/w)
		copy(grown, out)
		out = grown
	}
	for off := 0; off < len(payload); off += w {
		s := payload[off]
		if s != uint8(pimtree.R) && s != uint8(pimtree.S) {
			return nil, fmt.Errorf("ingest record %d: invalid stream id %d", off/w, s)
		}
		a := pimtree.Arrival{
			Stream: pimtree.StreamID(s),
			Key:    binary.BigEndian.Uint32(payload[off+1 : off+5]),
		}
		if timed {
			a.TS = binary.BigEndian.Uint64(payload[off+5 : off+13])
		}
		out = append(out, a)
	}
	return out, nil
}

// appendMatch appends one match record.
func appendMatch(dst []byte, m pimtree.Match) []byte {
	dst = append(dst, byte(m.ProbeStream))
	dst = binary.BigEndian.AppendUint64(dst, m.ProbeSeq)
	return binary.BigEndian.AppendUint64(dst, m.MatchSeq)
}

// decodeMatches decodes a match payload.
func decodeMatches(payload []byte) ([]pimtree.Match, error) {
	if len(payload)%recMatch != 0 {
		return nil, fmt.Errorf("match payload %d bytes is not a multiple of the %d-byte record", len(payload), recMatch)
	}
	out := make([]pimtree.Match, 0, len(payload)/recMatch)
	for off := 0; off < len(payload); off += recMatch {
		out = append(out, pimtree.Match{
			ProbeStream: pimtree.StreamID(payload[off]),
			ProbeSeq:    binary.BigEndian.Uint64(payload[off+1 : off+9]),
			MatchSeq:    binary.BigEndian.Uint64(payload[off+9 : off+17]),
		})
	}
	return out, nil
}
