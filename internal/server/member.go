package server

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// Member session: the node side of the cluster tier. A router opens a
// protocol connection and sends FrameJoinCluster instead of FrameHello; the
// connection then stops being a client session and becomes a member session
// — a shard.Member runtime fed by shipped ops, living exactly as long as the
// connection. Member state is deliberately per-connection: losing the router
// connection IS leaving the cluster (the router re-spreads the member's key
// range), so there is nothing to reconcile on reconnect.
//
// The member's engine shape comes entirely from the join frame, never from
// node-local flags, and is independent of the node's own Engine: a node can
// serve direct clients in one mode and host a member session in another.

// validateMemberConfig rejects join configs the member runtime cannot host.
func validateMemberConfig(cc ClusterConfig) error {
	if _, ok := memberIndexKind(cc.Backend); !ok {
		return fmt.Errorf("join-cluster: unknown backend %d", cc.Backend)
	}
	if cc.Timed {
		if cc.MaxLive <= 0 {
			return fmt.Errorf("join-cluster: timed mode requires a positive MaxLive, got %d", cc.MaxLive)
		}
	} else {
		if cc.WR <= 0 {
			return fmt.Errorf("join-cluster: WR must be positive, got %d", cc.WR)
		}
		if !cc.Self && cc.WS <= 0 {
			return fmt.Errorf("join-cluster: WS must be positive, got %d", cc.WS)
		}
	}
	return nil
}

// memberSession runs a member connection's inbound loop: apply shipped ops,
// answer pings with status, service the reassign exchanges of
// membership-change handoffs. Probe results flow back through the
// connection's writer (the out queue), so result frames and control replies
// interleave in enqueue order; a result enqueued before a reassign began is
// on the wire before the reassign's window frames.
func (c *conn) memberSession(br *bufio.Reader, hello []byte) {
	version, cc, err := decodeJoinCluster(hello)
	if err != nil {
		c.abort(err.Error())
		return
	}
	if version != ProtocolVersion {
		c.abort(fmt.Sprintf("unsupported protocol version %d (node speaks %d)", version, ProtocolVersion))
		return
	}
	if err := validateMemberConfig(cc); err != nil {
		c.abort(err.Error())
		return
	}
	if c.srv.draining.Load() {
		c.abort(errDraining.Error())
		return
	}
	kind, _ := memberIndexKind(cc.Backend)
	member := shard.NewMember(shard.MemberConfig{
		Shards: cc.Shards, Self: cc.Self, Timed: cc.Timed,
		WR: cc.WR, WS: cc.WS, MaxLive: cc.MaxLive,
		Index: kind, BatchSize: cc.Batch, Capacity: cc.Ring,
	}, func(idx uint64, buckets [][]uint64) {
		// Worker goroutine: encode now (the bucket slices are recycled ring
		// storage, dead after this call) and enqueue. A false send means the
		// connection is gone; the member keeps draining so the dispatching
		// goroutine can unwind.
		c.send(outItem{typ: FrameResults, payload: appendResult(nil, idx, buckets)})
	})
	defer member.Close()
	c.srv.members.Add(1)
	defer c.srv.members.Add(-1)
	c.srv.opts.Logf("server: member session opened (%d local shards, timed=%v)", member.Shards(), cc.Timed)
	if !c.send(outItem{typ: FrameClusterReady, payload: encodeClusterReady(ProtocolVersion, c.srv.opts.NodeID)}) {
		return
	}

	var (
		rbuf []byte
		ops  []shard.Op
		imp  []wal.Tuple
	)
	for {
		typ, payload, err := readFrameInto(br, c.srv.opts.MaxFrame, &rbuf)
		switch {
		case err == io.EOF:
			c.close()
			return
		case err != nil:
			if isNetErr(err) {
				c.close()
			} else {
				c.abort(err.Error())
			}
			return
		}
		switch typ {
		case FrameOps:
			var derr error
			ops, derr = decodeOpsInto(ops[:0], payload)
			if derr != nil {
				c.abort(derr.Error())
				return
			}
			member.Apply(ops)
			c.srv.memberOpFrames.Add(1)
		case FramePing:
			st := NodeStatus{
				Applied:  member.Applied(),
				EvictWM:  member.EvictWM(),
				Resident: uint64(member.Resident()),
			}
			if !c.send(outItem{typ: FrameNodeStatus, payload: encodeNodeStatus(st)}) {
				return
			}
		case FrameWindow:
			var derr error
			imp, derr = decodeWindowTuples(imp, payload)
			if derr != nil {
				c.abort(derr.Error())
				return
			}
		case FrameReassign:
			pos, nodes, n, derr := decodeReassign(payload)
			if derr != nil {
				c.abort(derr.Error())
				return
			}
			if uint64(len(imp)) != n {
				c.abort(fmt.Sprintf("reassign import count %d does not match %d received window tuples", n, len(imp)))
				return
			}
			out := member.Reassign(pos, nodes, imp)
			imp = imp[:0]
			send := func(typ byte, payload []byte) error {
				if !c.send(outItem{typ: typ, payload: payload}) {
					return net.ErrClosed
				}
				return nil
			}
			if sendHandoff(send, c.srv.opts.MaxFrame, out, FrameReassigned, encodeCount(uint64(len(out)))) != nil {
				return
			}
		default:
			c.abort(fmt.Sprintf("unexpected %s frame on a member session", frameName(typ)))
			return
		}
	}
}
