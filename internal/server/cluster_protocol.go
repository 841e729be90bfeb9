package server

// Cluster frame payloads: the encode/decode point for the router↔node leg
// of the distributed tier, shared by the node-side member session (this
// package) and the router side (internal/cluster via MemberClient). Framing
// and frame types live in protocol.go; every payload here is fixed-width
// records or explicitly length-prefixed fields, like the client-visible
// frames.

import (
	"encoding/binary"
	"fmt"

	"pimtree"
	"pimtree/internal/join"
	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// Cluster record widths.
const (
	recOp     = 34 // [insert u8][stream u8][x u32][y u32][a u64][b u64][c u64]
	recWindow = 21 // [stream u8][key u32][seq u64][ts u64]
	recStatus = 24 // [applied u64][evict wm u64][resident u64]
)

// joinClusterLen is the exact FrameJoinCluster payload length.
const joinClusterLen = 35

// ClusterConfig is the engine shape a router imposes on a member session,
// carried verbatim in FrameJoinCluster so every member of a cluster applies
// ops under identical parameters regardless of node-local flags.
type ClusterConfig struct {
	Timed   bool
	Self    bool
	Backend pimtree.Backend // index backend
	Shards  int             // local sub-shards per node (0 = node default)
	WR, WS  int             // count-window lengths (global W)
	MaxLive int             // timed: typical live tuples (index merge threshold)
	Span    uint64          // timed: window duration
	Batch   int             // member local batch size (0 = default)
	Ring    int             // member in-flight probe ring bound (0 = default)
}

// clusterFlags bits (FrameJoinCluster payload byte 1).
const (
	clusterFlagTimed = byte(0x01)
	clusterFlagSelf  = byte(0x02)
)

// memberIndexKind maps the wire backend byte to the shard-layer index kind.
// A byte naming no Backend is rejected at the join handshake.
func memberIndexKind(b pimtree.Backend) (join.IndexKind, bool) {
	switch b {
	case pimtree.PIMTree:
		return join.IndexPIMTree, true
	case pimtree.IMTree:
		return join.IndexIMTree, true
	case pimtree.BPlusTree:
		return join.IndexBTree, true
	}
	return 0, false
}

// encodeJoinCluster encodes a FrameJoinCluster payload.
func encodeJoinCluster(version byte, c ClusterConfig) []byte {
	dst := make([]byte, 0, joinClusterLen)
	dst = append(dst, version)
	flags := byte(0)
	if c.Timed {
		flags |= clusterFlagTimed
	}
	if c.Self {
		flags |= clusterFlagSelf
	}
	dst = append(dst, flags, byte(c.Backend))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.Shards))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.WR))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.WS))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.MaxLive))
	dst = binary.BigEndian.AppendUint64(dst, c.Span)
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.Batch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(c.Ring))
	return dst
}

// decodeJoinCluster decodes a FrameJoinCluster payload.
func decodeJoinCluster(payload []byte) (version byte, c ClusterConfig, err error) {
	if len(payload) != joinClusterLen {
		return 0, c, fmt.Errorf("join-cluster payload must be %d bytes, got %d", joinClusterLen, len(payload))
	}
	version = payload[0]
	flags := payload[1]
	if flags&^(clusterFlagTimed|clusterFlagSelf) != 0 {
		return 0, c, fmt.Errorf("join-cluster: unknown flags 0x%02x", flags)
	}
	c.Timed = flags&clusterFlagTimed != 0
	c.Self = flags&clusterFlagSelf != 0
	c.Backend = pimtree.Backend(payload[2])
	c.Shards = int(binary.BigEndian.Uint32(payload[3:7]))
	c.WR = int(binary.BigEndian.Uint32(payload[7:11]))
	c.WS = int(binary.BigEndian.Uint32(payload[11:15]))
	c.MaxLive = int(binary.BigEndian.Uint32(payload[15:19]))
	c.Span = binary.BigEndian.Uint64(payload[19:27])
	c.Batch = int(binary.BigEndian.Uint32(payload[27:31]))
	c.Ring = int(binary.BigEndian.Uint32(payload[31:35]))
	return version, c, nil
}

// encodeClusterReady encodes a FrameClusterReady payload.
func encodeClusterReady(version byte, nodeID string) []byte {
	if len(nodeID) > 255 {
		nodeID = nodeID[:255]
	}
	dst := make([]byte, 0, 2+len(nodeID))
	dst = append(dst, version, byte(len(nodeID)))
	return append(dst, nodeID...)
}

// decodeClusterReady decodes a FrameClusterReady payload.
func decodeClusterReady(payload []byte) (version byte, nodeID string, err error) {
	if len(payload) < 2 {
		return 0, "", fmt.Errorf("cluster-ready payload must be >= 2 bytes, got %d", len(payload))
	}
	n := int(payload[1])
	if len(payload) != 2+n {
		return 0, "", fmt.Errorf("cluster-ready payload %d bytes does not match id length %d", len(payload), n)
	}
	return payload[0], string(payload[2:]), nil
}

// appendOp appends one 34-byte op record. Inserts carry (key, seq, wm, ts)
// in (x, a, b, c); probes carry (lo, hi, te, tl, idx) in (x, y, a, b, c).
func appendOp(dst []byte, o shard.Op) []byte {
	ins := byte(0)
	x, y := o.Lo, o.Hi
	a, b, c := o.TE, o.TL, o.Idx
	if o.Insert {
		ins = 1
		x, y = o.Key, 0
		a, b, c = o.Seq, o.TE, o.TS
	}
	dst = append(dst, ins, o.Stream)
	dst = binary.BigEndian.AppendUint32(dst, x)
	dst = binary.BigEndian.AppendUint32(dst, y)
	dst = binary.BigEndian.AppendUint64(dst, a)
	dst = binary.BigEndian.AppendUint64(dst, b)
	return binary.BigEndian.AppendUint64(dst, c)
}

// decodeOpsInto decodes an ops payload, appending into dst (pass a recycled
// slice at length 0 to avoid steady-state allocation).
func decodeOpsInto(dst []shard.Op, payload []byte) ([]shard.Op, error) {
	if len(payload)%recOp != 0 {
		return nil, fmt.Errorf("ops payload %d bytes is not a multiple of the %d-byte record", len(payload), recOp)
	}
	for off := 0; off < len(payload); off += recOp {
		ins := payload[off]
		if ins > 1 {
			return nil, fmt.Errorf("ops record %d: invalid kind %d", off/recOp, ins)
		}
		s := payload[off+1]
		if s != uint8(pimtree.R) && s != uint8(pimtree.S) {
			return nil, fmt.Errorf("ops record %d: invalid stream id %d", off/recOp, s)
		}
		x := binary.BigEndian.Uint32(payload[off+2 : off+6])
		y := binary.BigEndian.Uint32(payload[off+6 : off+10])
		a := binary.BigEndian.Uint64(payload[off+10 : off+18])
		b := binary.BigEndian.Uint64(payload[off+18 : off+26])
		c := binary.BigEndian.Uint64(payload[off+26 : off+34])
		o := shard.Op{Stream: s}
		if ins == 1 {
			o.Insert = true
			o.Key, o.Seq, o.TE, o.TS = x, a, b, c
		} else {
			o.Lo, o.Hi, o.TE, o.TL, o.Idx = x, y, a, b, c
		}
		dst = append(dst, o)
	}
	return dst, nil
}

// appendResult appends one result group [idx u64][n u32][n × seq u64],
// concatenating the per-shard buckets in the order given (local shard
// order, which is key-range order).
func appendResult(dst []byte, idx uint64, buckets [][]uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, idx)
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for _, b := range buckets {
		for _, seq := range b {
			dst = binary.BigEndian.AppendUint64(dst, seq)
		}
	}
	return dst
}

// decodeResults walks a results payload, invoking fn for each group. The
// seqs slice is freshly decoded per group and may be retained.
func decodeResults(payload []byte, fn func(idx uint64, seqs []uint64) error) error {
	off := 0
	for off < len(payload) {
		if len(payload)-off < 12 {
			return fmt.Errorf("results payload: truncated group header at offset %d", off)
		}
		idx := binary.BigEndian.Uint64(payload[off : off+8])
		n := int(binary.BigEndian.Uint32(payload[off+8 : off+12]))
		off += 12
		if n > (len(payload)-off)/8 {
			return fmt.Errorf("results payload: group of %d seqs exceeds remaining %d bytes", n, len(payload)-off)
		}
		var seqs []uint64
		if n > 0 {
			seqs = make([]uint64, n)
			for i := 0; i < n; i++ {
				seqs[i] = binary.BigEndian.Uint64(payload[off : off+8])
				off += 8
			}
		}
		if err := fn(idx, seqs); err != nil {
			return err
		}
	}
	return nil
}

// appendWindowTuple appends one 21-byte window-tuple record.
func appendWindowTuple(dst []byte, t wal.Tuple) []byte {
	dst = append(dst, t.Stream)
	dst = binary.BigEndian.AppendUint32(dst, t.Key)
	dst = binary.BigEndian.AppendUint64(dst, t.Seq)
	return binary.BigEndian.AppendUint64(dst, t.TS)
}

// decodeWindowTuples decodes a window payload, appending into dst.
func decodeWindowTuples(dst []wal.Tuple, payload []byte) ([]wal.Tuple, error) {
	if len(payload)%recWindow != 0 {
		return nil, fmt.Errorf("window payload %d bytes is not a multiple of the %d-byte record", len(payload), recWindow)
	}
	for off := 0; off < len(payload); off += recWindow {
		s := payload[off]
		if s != uint8(pimtree.R) && s != uint8(pimtree.S) {
			return nil, fmt.Errorf("window record %d: invalid stream id %d", off/recWindow, s)
		}
		dst = append(dst, wal.Tuple{
			Stream: s,
			Key:    binary.BigEndian.Uint32(payload[off+1 : off+5]),
			Seq:    binary.BigEndian.Uint64(payload[off+5 : off+13]),
			TS:     binary.BigEndian.Uint64(payload[off+13 : off+21]),
		})
	}
	return dst, nil
}

// NodeStatus is a member heartbeat snapshot (FrameNodeStatus).
type NodeStatus struct {
	Applied  uint64 // ops dispatched to local shards
	EvictWM  uint64 // highest shipped eviction watermark (seq, or minTS timed)
	Resident uint64 // tuples currently stored across local shards
}

// encodeNodeStatus encodes a FrameNodeStatus payload.
func encodeNodeStatus(st NodeStatus) []byte {
	dst := make([]byte, 0, recStatus)
	dst = binary.BigEndian.AppendUint64(dst, st.Applied)
	dst = binary.BigEndian.AppendUint64(dst, st.EvictWM)
	return binary.BigEndian.AppendUint64(dst, st.Resident)
}

// decodeNodeStatus decodes a FrameNodeStatus payload.
func decodeNodeStatus(payload []byte) (NodeStatus, error) {
	if len(payload) != recStatus {
		return NodeStatus{}, fmt.Errorf("node-status payload must be %d bytes, got %d", recStatus, len(payload))
	}
	return NodeStatus{
		Applied:  binary.BigEndian.Uint64(payload[0:8]),
		EvictWM:  binary.BigEndian.Uint64(payload[8:16]),
		Resident: binary.BigEndian.Uint64(payload[16:24]),
	}, nil
}

// encodeReassign encodes a FrameReassign payload.
func encodeReassign(pos, nodes int, imports uint64) []byte {
	dst := make([]byte, 0, 16)
	dst = binary.BigEndian.AppendUint32(dst, uint32(pos))
	dst = binary.BigEndian.AppendUint32(dst, uint32(nodes))
	return binary.BigEndian.AppendUint64(dst, imports)
}

// decodeReassign decodes a FrameReassign payload. A map of no nodes is
// rejected: it gives no position an owner.
func decodeReassign(payload []byte) (pos, nodes int, imports uint64, err error) {
	if len(payload) != 16 {
		return 0, 0, 0, fmt.Errorf("reassign payload must be 16 bytes, got %d", len(payload))
	}
	pos = int(binary.BigEndian.Uint32(payload[0:4]))
	nodes = int(binary.BigEndian.Uint32(payload[4:8]))
	if nodes == 0 {
		return 0, 0, 0, fmt.Errorf("reassign: a map of 0 nodes")
	}
	return pos, nodes, binary.BigEndian.Uint64(payload[8:16]), nil
}

// sendHandoff writes one half of a reassign exchange through send: tuples as
// FrameWindow batches of at most maxFrame bytes, then the closing frame typ
// (FrameReassign or FrameReassigned) with payload end. Every payload is
// freshly allocated, so send may retain it. It stops at the first error.
func sendHandoff(send func(typ byte, payload []byte) error, maxFrame int, tuples []wal.Tuple, typ byte, end []byte) error {
	perFrame := max(maxFrame/recWindow, 1)
	for lo := 0; lo < len(tuples); lo += perFrame {
		hi := min(lo+perFrame, len(tuples))
		enc := make([]byte, 0, (hi-lo)*recWindow)
		for _, t := range tuples[lo:hi] {
			enc = appendWindowTuple(enc, t)
		}
		if err := send(FrameWindow, enc); err != nil {
			return err
		}
	}
	return send(typ, end)
}

// encodeCount encodes a [count u64] payload (FrameReassigned).
func encodeCount(n uint64) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, 0, 8), n)
}

// decodeCount decodes a [count u64] payload.
func decodeCount(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("count payload must be 8 bytes, got %d", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}
