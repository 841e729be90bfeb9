package shard

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/wal"
)

// gateIndex is a shard index whose Insert waits on a gate and counts what got
// through — a worker parked mid-batch, as one is for the length of a merge.
type gateIndex struct {
	join.Index
	gate    <-chan struct{}
	applied atomic.Int64
	target  int64
	reached chan struct{} // closed when applied hits target
}

func (g *gateIndex) Insert(p kv.Pair) {
	<-g.gate
	g.Index.Insert(p)
	if g.applied.Add(1) == g.target {
		close(g.reached)
	}
}

// TestPoolSiblingKeepsWorking pins what the lane depth is for: with one
// shard's worker parked, the producer must be able to keep alternating between
// the two lanes for a merge pause's worth of ops, and the sibling must apply
// its share meanwhile. With lanes four batches deep the producer parked on
// the stalled lane after ~320 ops and the sibling idled with it.
func TestPoolSiblingKeepsWorking(t *testing.T) {
	const perLane = 1000
	cfg := Config{WR: 4096, WS: 4096, Self: true, Index: join.IndexBTree}
	engines := []*engine{newEngine(cfg), newEngine(cfg)}
	parked, open := make(chan struct{}), make(chan struct{})
	close(open)
	var gates [2]*gateIndex
	for s, gate := range []<-chan struct{}{parked, open} {
		gates[s] = &gateIndex{Index: engines[s].idxs[0], gate: gate, target: perLane, reached: make(chan struct{})}
		engines[s].idxs[0] = gates[s]
	}
	var fan FanIn
	p := &pool{fan: &fan, batchSize: 64}
	fan.Init(p.flushAll, nil)
	fan.Resize(64, 2)
	p.start(engines, make([]*wal.Lane, 2))

	handed := make(chan struct{})
	go func() {
		defer close(handed)
		for i := 0; i < perLane; i++ {
			for s := range engines {
				p.enqueue(s, op{kind: opInsert, key: uint32(i), seq: uint64(i)})
			}
		}
		p.flushAll()
	}()
	wait := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			n := gates[1].applied.Load()
			close(parked) // let the producer and the workers finish
			<-handed
			p.stop()
			t.Fatalf("%s: sibling had applied %d of %d ops", what, n, perLane)
		}
	}
	wait(handed, "producer blocked on the parked shard's lane")
	wait(gates[1].reached, "sibling did not finish its lane while the other shard was parked")
	if n := gates[0].applied.Load(); n != 0 {
		t.Fatalf("parked shard applied %d ops", n)
	}
	close(parked)
	p.stop()
	if n := gates[0].applied.Load(); n != perLane {
		t.Fatalf("parked shard applied %d of %d ops once released", n, perLane)
	}
}

// TestSaturatedLaneSizeFlushes checks that FlushIdle leaves a busy lane to
// size flushing: with the worker parked mid-batch and batches queued behind
// it, a producer call's full batches ship on size, and its partial tail is
// spilled rather than shipped, to be taken back and filled by the next call.
func TestSaturatedLaneSizeFlushes(t *testing.T) {
	const batch, tail = 64, 10
	const total = 5*batch + tail + 1
	cfg := Config{WR: 4096, WS: 4096, Self: true, Index: join.IndexBTree}
	engines := []*engine{newEngine(cfg)}
	parked := make(chan struct{})
	gate := &gateIndex{Index: engines[0].idxs[0], gate: parked, target: total, reached: make(chan struct{})}
	engines[0].idxs[0] = gate
	var fan FanIn
	p := &pool{fan: &fan, batchSize: batch}
	fan.Init(p.flushAll, nil)
	fan.Resize(64, 1)
	p.start(engines, make([]*wal.Lane, 1))

	i := 0
	push := func(n int) {
		for ; n > 0; n-- {
			p.enqueue(0, op{kind: opInsert, key: uint32(i), seq: uint64(i)})
			i++
		}
	}
	// Three full batches: the worker takes the first and parks on its first
	// insert, so at least two stay queued in the lane.
	push(3 * batch)
	size0, idle0 := p.FlushCounts()
	push(2*batch + tail)
	p.FlushIdle()
	size, idle := p.FlushCounts()
	if size != size0+2 || idle != idle0 {
		t.Fatalf("saturated call: size flushes +%d, idle flushes +%d; want +2, +0", size-size0, idle-idle0)
	}
	if n := len(p.pend[0]); n != 0 || len(p.spill[0].ops) != tail {
		t.Fatalf("after FlushIdle: %d ops pending, %d spilled; want 0, %d", n, len(p.spill[0].ops), tail)
	}
	push(1)
	if n := len(p.pend[0]); n != tail+1 || p.spill[0].ops != nil {
		t.Fatalf("next call's batch holds %d ops, spill slot %d; want %d, 0", n, len(p.spill[0].ops), tail+1)
	}
	close(parked)
	p.stop()
	if n := gate.applied.Load(); n != total {
		t.Fatalf("applied %d of %d ops once released", n, total)
	}
}

// TestSpilledBatchReachesDryWorker checks the spill's liveness: a partial
// batch spilled behind a busy lane is applied once the lane runs dry, with
// no further producer call.
func TestSpilledBatchReachesDryWorker(t *testing.T) {
	const batch, tail = 64, 10
	cfg := Config{WR: 4096, WS: 4096, Self: true, Index: join.IndexBTree}
	engines := []*engine{newEngine(cfg)}
	parked := make(chan struct{})
	gate := &gateIndex{Index: engines[0].idxs[0], gate: parked, target: 2*batch + tail, reached: make(chan struct{})}
	engines[0].idxs[0] = gate
	var fan FanIn
	p := &pool{fan: &fan, batchSize: batch}
	fan.Init(p.flushAll, nil)
	fan.Resize(64, 1)
	p.start(engines, make([]*wal.Lane, 1))
	defer p.stop()
	for i := 0; i < 2*batch+tail; i++ {
		p.enqueue(0, op{kind: opInsert, key: uint32(i), seq: uint64(i)})
	}
	p.FlushIdle()
	close(parked)
	select {
	case <-gate.reached:
	case <-time.After(10 * time.Second):
		t.Fatalf("applied %d of %d ops: the spilled tail never reached the worker", gate.applied.Load(), 2*batch+tail)
	}
}

// orderIndex is a shard index that counts inserts arriving out of sequence
// order (keys carry the sequence), and all inserts.
type orderIndex struct {
	join.Index
	last                uint32
	inserted, reordered atomic.Int64
}

func (o *orderIndex) Insert(p kv.Pair) {
	if p.Key < o.last {
		o.reordered.Add(1)
	}
	o.last = p.Key
	o.inserted.Add(1)
	o.Index.Insert(p)
}

// TestSpillKeepsLaneOrder pushes one-to-three-op calls at a hot and a cold
// shard, each call ending in FlushIdle, so batches are spilled and taken back
// or picked up by workers all the time. Every shard must still apply its ops
// in routing order: a spilled batch may not overtake a batch sent before it.
func TestSpillKeepsLaneOrder(t *testing.T) {
	calls := 200000
	if testing.Short() {
		calls = 20000
	}
	cfg := Config{WR: 1 << 12, WS: 1 << 12, Self: true, Index: join.IndexBTree}
	engines := []*engine{newEngine(cfg), newEngine(cfg)}
	idxs := make([]*orderIndex, len(engines))
	for s, e := range engines {
		idxs[s] = &orderIndex{Index: e.idxs[0]}
		e.idxs[0] = idxs[s]
	}
	var fan FanIn
	p := &pool{fan: &fan, batchSize: 64}
	fan.Init(p.flushAll, nil)
	fan.Resize(64, 2)
	p.start(engines, make([]*wal.Lane, 2))
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for call := 0; call < calls; call++ {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			s := 0
			if rng.Intn(20) == 0 {
				s = 1
			}
			p.enqueue(s, op{kind: opInsert, key: uint32(seq), seq: seq})
			seq++
		}
		p.FlushIdle()
		if call%(calls/4) == 0 {
			p.drainBarrier()
		}
	}
	p.stop()
	var applied int64
	for s, idx := range idxs {
		if n := idx.reordered.Load(); n != 0 {
			t.Fatalf("shard %d applied %d inserts out of routing order", s, n)
		}
		applied += idx.inserted.Load()
	}
	if applied != int64(seq) {
		t.Fatalf("applied %d of %d inserts", applied, seq)
	}
}
