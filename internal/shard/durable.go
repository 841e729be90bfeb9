package shard

import "pimtree/internal/wal"

// This file is the router side of the durability layer (internal/wal): the
// snapshot barrier, the recovered-state replay, and the reorder-clock
// accessors the watermark records need. The logging itself lives on the
// worker hot path (worker appends each applied insert to its shard's lane)
// and in Drain/Close (frontier record + fsync).
//
// Why nothing else needs logging: insert records carry the global per-stream
// sequence, so replay is shard-agnostic — recovery routes every recovered
// tuple through the CURRENT partitioner. Reshape epochs therefore move
// tuples between engines without touching the log, and the
// ordered-merge state never persists at all (matches emitted before a crash
// are not replayed; delivery is at-most-once across a restart).

// reorderMaxTS returns the reorder buffer's disorder clock (zero for count
// windows).
func (r *Router) reorderMaxTS() uint64 {
	if r.reorder == nil {
		return 0
	}
	return r.reorder.MaxTS()
}

// reorderFloor returns the reorder buffer's release watermark (zero for
// count windows).
func (r *Router) reorderFloor() uint64 {
	if r.reorder == nil {
		return 0
	}
	return r.reorder.Watermark()
}

// maybeWALSnapshot runs on the router goroutine after each push and starts a
// snapshot epoch once SnapshotEvery arrivals have been routed since the last
// one.
func (r *Router) maybeWALSnapshot() {
	if r.cfg.SnapshotEvery <= 0 || r.n-r.lastSnap < r.cfg.SnapshotEvery {
		return
	}
	r.lastSnap = r.n
	r.walSnapshot()
}

// walSnapshot is one snapshot epoch: drain every shard to the barrier,
// rotate all lanes (sealing the segments the snapshot will obsolete), write
// a compacting snapshot of the live window, and prune. Exactly the reshape
// epoch's quiescence argument: no op is in flight at the barrier, the
// workers are parked at their channel receive, so the router may read engine
// stores and touch worker lanes; the next batch send publishes everything.
func (r *Router) walSnapshot() {
	r.drainBarrier()
	for _, l := range r.lanes {
		l.Rotate()
	}
	r.metaLane.Rotate()
	st := wal.State{
		Heads: r.heads, WMs: r.frontiers(),
		MaxTS: r.reorderMaxTS(), Floor: r.reorderFloor(),
	}
	n, tuples := r.liveWindow(st.WMs)
	if err := r.cfg.WAL.StreamSnapshot(&st, n, tuples); err == nil {
		r.cfg.WAL.Prune()
	}
	// On error the sealed segments simply survive until a later snapshot
	// succeeds — recovery is indifferent to which files carry the prefix.
}

// Restore replays a recovered WAL state into a freshly built router: the
// sequence heads resume the global numbering, the reorder buffer is seeded
// with the recovered clock, and every engine slot is loaded at the recovered
// frontier with the live tuples the current partitioner assigns it. Must be
// called before the first push; the workers are parked at their channel
// receive, so the engine mutations are published by the first batch send
// (the same argument as migration).
func (r *Router) Restore(st *wal.State) {
	if st == nil {
		return
	}
	r.heads = st.Heads
	if r.reorder != nil {
		r.reorder.Seed(st.MaxTS, st.Floor)
	}
	// st.Tuples is globally seq-sorted, so each slot's subsequence is too —
	// the order deal requires.
	deal(r.engines, r.part, r.cfg.Self, st.WMs, st.Tuples)
}
