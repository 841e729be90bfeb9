package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"pimtree"
	"pimtree/internal/server"
	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// Membership changes run on the producer-serialized path (prodMu), at a
// full quiesce: every routed arrival has propagated and no op batches are
// pending, so no in-flight probe can observe a half-moved window. The
// reorder buffer is deliberately untouched (like the shard layer's
// Reshape): tuples still buffered for reordering route under the new map
// when their watermark releases them.
//
// The handoff itself is Router.reshard's gather → deal, across nodes (see
// rebalanceEpoch): every member keeps what the new map assigns to its
// position and hands back the rest over the 0x16–0x18 control frames, and
// the router deals what came back to the new owners.

// AddNode dials addr, hands it the window tuples the new partition map
// assigns to it, and installs the new membership epoch. Safe from admin
// goroutines; ingest is paused for the duration (the producer path blocks
// on prodMu).
func (fe *Frontend) AddNode(addr string) error {
	if err := fe.errLoad(); err != nil {
		return err
	}
	// Dial before pausing ingest: an unreachable node then costs nothing.
	nd, err := fe.dialNode(addr)
	if err != nil {
		return err
	}
	go nd.reader()
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		nd.leaving.Store(true)
		nd.mc.Close()
		return pimtree.ErrClosed
	}
	for _, ex := range fe.nodes {
		if ex.addr == addr && ex.alive.Load() {
			nd.leaving.Store(true)
			nd.mc.Close()
			return fmt.Errorf("cluster: node %s is already a member", addr)
		}
	}
	fe.flushAll()
	if err := fe.Wait(context.Background()); err != nil {
		nd.leaving.Store(true)
		nd.mc.Close()
		return err
	}
	newList := append(append([]*node(nil), fe.nodes...), nd)
	return fe.rebalanceEpoch(newList)
}

// RemoveNode drains the node matching ref (node ID or address) of its key
// range — handing its window slices to the survivors — removes it from the
// map, and closes its member session. Removing an already-down node is
// allowed (its window is gone; this re-spreads its key range). Safe from
// admin goroutines.
func (fe *Frontend) RemoveNode(ref string) error {
	fe.prodMu.Lock()
	defer fe.prodMu.Unlock()
	if fe.closed {
		return pimtree.ErrClosed
	}
	var target *node
	for _, nd := range fe.nodes {
		if nd.id == ref || nd.addr == ref {
			target = nd
			break
		}
	}
	if target == nil {
		return fmt.Errorf("cluster: no member matches %q", ref)
	}
	if len(fe.nodes) == 1 {
		return errors.New("cluster: cannot remove the last node")
	}
	fe.flushAll()
	if err := fe.Wait(context.Background()); err != nil {
		return err
	}
	newList := make([]*node, 0, len(fe.nodes)-1)
	for _, nd := range fe.nodes {
		if nd != target {
			newList = append(newList, nd)
		}
	}
	err := fe.rebalanceEpoch(newList)
	target.leaving.Store(true)
	target.mc.Close() // the reader unwinds through nodeDown's leaving branch
	return err
}

// rebalanceEpoch is the reshape epoch across nodes: it gathers the window
// slices whose owner changes between the current map and newList and deals
// them to their new owners, then installs the new epoch.
//
//   - Phase 1 reassigns every live old node to its position in newList (a
//     leaving node to none) and collects the tuples each hands back.
//   - Phase 2 buckets them by the new map and reassigns each live gaining
//     node with its bucket.
//
// A bucket whose owner is down is dropped and logged, as the window of an
// already-down node is. Exchanges whose node died mid-handoff are counted as
// lost (their tuples are shed) and reported, but the epoch still installs —
// the map and the surviving storage must agree, and every completed exchange
// is only correct under the new map. Caller holds prodMu at full quiesce.
func (fe *Frontend) rebalanceEpoch(newList []*node) error {
	k := len(newList)
	var errs []error
	var moving []wal.Tuple
	for _, nd := range fe.nodes {
		if !nd.alive.Load() {
			continue // a dead node's window is already lost
		}
		pos := slices.Index(newList, nd)
		if pos < 0 {
			pos = k // leaving: keep nothing
		}
		out, err := fe.reassign(nd, pos, k, nil)
		if err != nil {
			errs = append(errs, err)
		}
		moving = append(moving, out...)
	}
	newPart := shard.NewRangePartitioner(k)
	buckets := make([][]wal.Tuple, k)
	for _, t := range moving {
		pos := newPart.ShardOf(t.Key)
		buckets[pos] = append(buckets[pos], t)
	}
	for pos, nd := range newList {
		bucket := buckets[pos]
		if len(bucket) == 0 {
			continue
		}
		if !nd.alive.Load() {
			fe.cfg.Logf("cluster: %d window tuples for down node %s dropped", len(bucket), nd.id)
			continue
		}
		back, err := fe.reassign(nd, pos, k, bucket)
		if err == nil && len(back) > 0 {
			err = fmt.Errorf("cluster: node %s handed back %d tuples of its own range; lost", nd.id, len(back))
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		fe.handoffs.Add(1)
		fe.handoffTuples.Add(uint64(len(bucket)))
		fe.cfg.Logf("cluster: moved %d window tuples to %s", len(bucket), nd.id)
	}
	fe.setMu.Lock()
	fe.nodes = newList
	fe.part = newPart
	// The ring is quiesced: resize its bucket rows to the new maximum
	// fan-out width.
	fe.Resize(fe.Cap(), k)
	fe.setMu.Unlock()
	fe.epoch.Add(1)
	fe.cfg.Logf("cluster: membership epoch %d: %d nodes", fe.epoch.Load(), k)
	return errors.Join(errs...)
}

// reassign runs one reassign exchange with nd: ship imports and nd's
// position in a map of nodes, then collect the window batches nd hands back
// until its count. A node that fails the exchange is declared down, and
// everything it held or was sent is lost.
func (fe *Frontend) reassign(nd *node, pos, nodes int, imports []wal.Tuple) ([]wal.Tuple, error) {
	if err := nd.mc.Reassign(pos, nodes, imports); err != nil {
		fe.nodeDown(nd, fmt.Errorf("reassign: %w", err))
		return nil, fmt.Errorf("cluster: reassign %s: %w; %d imported tuples lost", nd.id, err, len(imports))
	}
	var out []wal.Tuple
	for {
		var ev server.NodeEvent
		select {
		case ev = <-nd.ctrl:
		case <-nd.downc:
			return nil, fmt.Errorf("cluster: node %s died during reassign; its window slice and %d imported tuples lost", nd.id, len(imports))
		}
		var err error
		switch ev.Type {
		case server.FrameWindow:
			out = append(out, ev.Window...)
			continue
		case server.FrameReassigned:
			if ev.Count == uint64(len(out)) {
				return out, nil
			}
			err = fmt.Errorf("cluster: node %s reassign count %d != %d tuples received", nd.id, ev.Count, len(out))
		default:
			err = fmt.Errorf("cluster: node %s sent unexpected %#x during reassign", nd.id, ev.Type)
		}
		fe.nodeDown(nd, err)
		return nil, err
	}
}
