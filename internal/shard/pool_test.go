package shard

import (
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
	shardIndex
	gate    <-chan struct{}
	applied atomic.Int64
	target  int64
	reached chan struct{} // closed when applied hits target
}

func (g *gateIndex) Insert(p kv.Pair) {
	<-g.gate
	g.shardIndex.Insert(p)
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
		gates[s] = &gateIndex{shardIndex: engines[s].idxs[0], gate: gate, target: perLane, reached: make(chan struct{})}
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
				p.enqueue(s, op{kind: opInsert, key: uint32(i), seq: uint64(i)}, i)
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
