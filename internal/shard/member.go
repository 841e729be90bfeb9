package shard

import (
	"runtime"
	"sync/atomic"

	"pimtree/internal/join"
	"pimtree/internal/wal"
)

// This file is the node side of the cluster tier: a Member hosts a slice of
// the global key domain as a set of local single-writer shard engines, fed
// not by its own admission logic but by pre-sequenced ops shipped from a
// remote cluster router (internal/cluster). The router's Sequencer performs
// ALL global sequencing — per-stream sequence heads, band range, eviction
// watermarks, behind its timed-mode reorder buffer — so a probe op arriving
// here already carries its [TE, TL) window and an insert op its global
// sequence and watermark. The member only has to apply ops in
// shipment order and report each probe's matched sequences back, tagged with
// the router's correlation id. Global exactness then follows from the same
// argument as the single-machine sharded runtime: ops reach every engine in
// global arrival order, and liveness is filtered by windows captured at
// admission, not by any node-local clock.

// Op is one wire-shipped routed command — the exported mirror of the
// internal op type, as carried by the cluster Ops frame.
type Op struct {
	Insert bool
	Stream uint8  // owner stream for inserts, probed stream for probes
	Key    uint32 // insert: tuple key
	Lo, Hi uint32 // probe: band range (inclusive)
	Seq    uint64 // insert: the tuple's global per-stream sequence
	TE, TL uint64 // insert: TE = eviction watermark; probe: [TE, TL) window
	TS     uint64 // timed-mode insert: event timestamp
	Idx    uint64 // probe: router correlation id, echoed with the result
}

// MemberConfig shapes a node-side member runtime. It is decoded from the
// router's join frame, never from node-local flags: every member of a
// cluster must apply ops under identical window/backend parameters or the
// match multiset diverges.
type MemberConfig struct {
	Shards int  // local sub-shard count (default GOMAXPROCS)
	Self   bool // self-join: one stream, one window per engine
	Timed  bool // time-based windows (ops carry event timestamps)

	WR, WS  int // count-window lengths (global W; local stores hold subsets)
	MaxLive int // timed: typical live tuples per window (sizes the index merge threshold)

	Index     join.IndexKind // per-shard index backend
	BatchSize int            // ops per local shard batch (default 64)
	Capacity  int            // in-flight probe ring bound (default 4096)
}

const defaultMemberCapacity = 1 << 12

// Member applies cluster-shipped ops against local sub-shard engines and
// emits probe results through a callback: the same pool of FIFO shard workers
// and the same FanIn as Router, minus the Sequencer (the ops arrive sequenced)
// and the WAL lanes. The FanIn emits each probe's buckets in local shard
// order — which is key-range order, so the concatenation across nodes at the
// router remains deterministic. Ring backpressure reaches the router through
// the connection's TCP window.
//
// Apply, Reassign, and Close must all be called from one dispatching
// goroutine (the member connection's reader). The result callback fires on
// worker goroutines.
type Member struct {
	pool
	FanIn

	self bool
	part Partitioner

	// onResult receives each completed probe's matched sequences, bucketed
	// by local shard in shard order. The bucket slices are recycled ring
	// storage, valid only during the call — the callback must consume (copy
	// or encode) them before returning.
	onResult func(idx uint64, buckets [][]uint64)
	rids     []uint64 // router correlation id per ring slot

	applied atomic.Uint64 // ops dispatched to workers
	evictWM atomic.Uint64 // max insert watermark seen (seq, or minTS timed)
}

// NewMember builds a member runtime and starts its local shard workers.
// onResult must be non-nil; see Member for its contract.
func NewMember(cfg MemberConfig, onResult func(idx uint64, buckets [][]uint64)) *Member {
	if cfg.Timed {
		if cfg.MaxLive <= 0 {
			panic("shard: member MaxLive must be positive in timed mode")
		}
		cfg.WR, cfg.WS = cfg.MaxLive, cfg.MaxLive
	}
	if cfg.WR <= 0 {
		panic("shard: member WR must be positive")
	}
	if cfg.Self {
		cfg.WS = cfg.WR
	}
	if cfg.WS <= 0 {
		panic("shard: member WS must be positive")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultMemberCapacity
	}
	k := cfg.Shards
	m := &Member{
		self:     cfg.Self,
		part:     NewRangePartitioner(k),
		onResult: onResult,
		rids:     make([]uint64, cfg.Capacity),
	}
	m.pool.fan, m.batchSize = &m.FanIn, cfg.BatchSize
	m.Init(m.flushAll, func(slot int, buckets [][]uint64) { m.onResult(m.rids[slot], buckets) })
	m.Resize(cfg.Capacity, k)
	m.start(newEngines(Config{
		WR: cfg.WR, WS: cfg.WS, Self: cfg.Self, Timed: cfg.Timed, Index: cfg.Index,
	}, k))
	return m
}

// Apply dispatches one shipped op batch to the local shards, in order. Every
// pending local batch is flushed before returning — an incoming Ops frame is
// the natural batching unit, so no op waits for a later frame to fill its
// batch. May block on ring backpressure.
func (m *Member) Apply(ops []Op) {
	k := len(m.engines)
	for i := range ops {
		o := &ops[i]
		stream := sid(m.self, o.Stream)
		if o.Insert {
			if o.TE > m.evictWM.Load() {
				m.evictWM.Store(o.TE)
			}
			m.enqueue(Clamp(m.part.ShardOf(o.Key), k), op{
				kind: opInsert, stream: stream,
				key: o.Key, seq: o.Seq, te: o.TE, ts: o.TS,
			})
			continue
		}
		idx, slot := m.Admit()
		s1 := Clamp(m.part.ShardOf(o.Lo), k)
		s2 := Clamp(m.part.ShardOf(o.Hi), k)
		m.rids[slot] = o.Idx
		m.Open(slot, s2-s1+1)
		for s := s1; s <= s2; s++ {
			m.enqueue(s, op{
				kind: opProbe, stream: stream, lo: o.Lo, hi: o.Hi,
				te: o.TE, tl: o.TL, idx: idx, bucket: s - s1,
			})
		}
		m.Publish()
	}
	m.applied.Add(uint64(len(ops)))
	m.flushAll()
}

// quiesce flushes every pending batch, blocks until all shipped ops have
// been applied and every probe result emitted (the cluster analogue of the
// drain barrier), and then evicts every store to the member's frontier: per
// stream, the highest watermark any sub-shard has applied. Watermarks only
// rise, so no later op can match below it, but a sub-shard that saw no op
// for a while still holds tuples past their window. On return the engines
// may be mutated from the dispatching goroutine (see Reassign). It returns
// the frontier.
func (m *Member) quiesce() [2]uint64 {
	m.drainBarrier()
	m.Propagate()
	wms := storeFrontiers(m.engines)
	for _, e := range m.engines {
		for slot := 0; slot < storeSlots(m.self); slot++ {
			e.stores[slot].evict(wms[slot], e.evicts[slot])
		}
		e.updateResident()
	}
	return wms
}

// Reassign is this member's part of a membership epoch, the reshape epoch
// across nodes: it quiesces, gathers every tuple live at the member's
// frontier (see quiesce) plus imports, keeps the tuples that the equal-width
// map over nodes assigns to position pos, and returns the rest. A position
// at or past nodes keeps nothing, which is how a leaving node is told.
// Removal matters: a returned tuple belongs to another node, and a stale
// copy here would still be hit by band probes and double-report matches.
// The returned tuples are in sequence order per stream. The sub-shard map is
// the same before and after, so only the slots that lose an export or gain
// an import differ from what they hold, and deal reloads only those.
func (m *Member) Reassign(pos, nodes int, imports []wal.Tuple) []wal.Tuple {
	wms := m.quiesce()
	window, part := m.gather(wms, imports), NewRangePartitioner(nodes)
	keep, exports := window[:0], []wal.Tuple(nil)
	for _, t := range window {
		if pos < nodes && part.ShardOf(t.Key) == pos {
			keep = append(keep, t)
		} else {
			exports = append(exports, t)
		}
	}
	deal(m.engines, m.part, m.self, wms, keep)
	return exports
}

// Resident reports tuples currently stored across all local shards (both
// streams). Safe from any goroutine.
func (m *Member) Resident() int {
	n := int64(0)
	for _, e := range m.engines {
		n += e.resident.Load()
	}
	return int(n)
}

// Applied reports ops dispatched to local shards. Safe from any goroutine.
func (m *Member) Applied() uint64 { return m.applied.Load() }

// EvictWM reports the highest eviction watermark shipped with an insert
// (a global sequence for count windows, a minimum live event time for timed
// ones) — the member's view of the global frontier. Safe from any goroutine.
func (m *Member) EvictWM() uint64 { return m.evictWM.Load() }

// Shards reports the local sub-shard count.
func (m *Member) Shards() int { return len(m.engines) }

// Close stops the local workers after applying everything dispatched.
// The member must not be used afterwards.
func (m *Member) Close() {
	m.stop()
	m.Propagate()
}
