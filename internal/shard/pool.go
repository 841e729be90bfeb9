package shard

import (
	"sync"

	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/wal"
)

// LaneDepth is how many batches a shard's op channel holds (plus one pending
// in the producer and one in the worker). It is sized against a merge pause: a
// delta merge at W = 2^20 stops its worker for about 7 ms, and with lanes 4
// batches deep the producer parked on the merging shard's lane after 256 ops
// and the sibling shards idled through the rest. At 32 the producer runs 2 048
// ops ahead, and every sibling has a lane of work queued when it finally
// parks. The FanIn ring stays the only backpressure a caller observes.
const LaneDepth = 32

// freeChanCap sizes the free list to hold a full lane's batches with
// headroom, so steady-state batch recycling is a closed loop — no drops on
// return, no allocations in enqueue. Batches are still allocated lazily: a
// lane that never backs up never owns more than a handful.
const freeChanCap = LaneDepth + 8

// spillSlot holds the partial batch FlushIdle leaves behind a busy lane. The
// producer sends that lane nothing until it takes the batch back, so a worker
// that finds its lane dry under mu may apply it next.
type spillSlot struct {
	mu   sync.Mutex
	ops  []op
	held bool // producer only: ops may still be in the slot
}

// pool is the set of single-writer shard engines with the batched FIFO lanes
// that feed them. One producer goroutine enqueues; each engine is touched
// only by its own worker — or by the producer while every worker is parked
// behind drainBarrier. Workers write probe results into fan and volunteer for
// its ordered propagation after every batch.
type pool struct {
	fan       *FanIn
	batchSize int

	engines []*engine
	chans   []chan []op
	free    []chan []op // consumed batch slices on their way back to enqueue
	pend    [][]op      // each shard's accumulating batch (nil when empty)
	spill   []spillSlot
	// lanes is parallel to engines, its entries nil unless durability is on:
	// each worker appends applied inserts to its own lane, so the hot path
	// never locks; the producer only touches lanes behind drainBarrier.
	lanes   []*wal.Lane
	wg      sync.WaitGroup
	barrier sync.WaitGroup

	// qhw is the per-shard queue-depth high-water mark, observed by the
	// producer at every batch handoff (single writer) and read live by load
	// scrapers. start begins fresh marks.
	qhw []metrics.PaddedCounter
	// Flush accounting by trigger (producer only).
	sizeFlushes int
	idleFlushes int
}

// start installs an engine set and its WAL lanes behind fresh queues and
// spawns one worker per engine.
func (p *pool) start(engines []*engine, lanes []*wal.Lane) {
	k := len(engines)
	p.engines, p.lanes = engines, lanes
	p.chans = make([]chan []op, k)
	p.free = make([]chan []op, k)
	p.pend = make([][]op, k)
	p.spill = make([]spillSlot, k)
	p.qhw = make([]metrics.PaddedCounter, k)
	for s := 0; s < k; s++ {
		p.chans[s] = make(chan []op, LaneDepth)
		p.free[s] = make(chan []op, freeChanCap)
		p.wg.Add(1)
		go p.worker(s)
	}
}

// enqueue appends an op to a shard's pending batch, flushing on size. A fresh
// batch slice is only allocated during warmup (or when a worker briefly held
// more batches than the free channel's headroom).
func (p *pool) enqueue(s int, o op) {
	if p.unspill(s); p.pend[s] == nil {
		select {
		case r := <-p.free[s]:
			p.pend[s] = r[:0]
		default:
			p.pend[s] = make([]op, 0, p.batchSize)
		}
	}
	p.pend[s] = append(p.pend[s], o)
	if len(p.pend[s]) >= p.batchSize {
		p.sizeFlushes++
		p.flush(s)
	}
}

// flush ships a shard's pending batch to its worker. The depth observed
// right after the send is the ride-along sample that keeps the high-water
// mark monotone without touching the worker's consume path.
func (p *pool) flush(s int) {
	if p.unspill(s); p.pend[s] == nil {
		return
	}
	p.chans[s] <- p.pend[s]
	if d := uint64(len(p.chans[s])); d > p.qhw[s].Load() {
		p.qhw[s].Store(d)
	}
	p.pend[s] = nil
}

// flushAll ships every pending batch.
func (p *pool) flushAll() {
	for s := range p.pend {
		p.flush(s)
	}
}

// FlushIdle, called at the end of each producer call, ships every partial
// batch whose lane is empty: that worker is about to park, so holding the
// batch only adds latency. A busy lane's batch is spilled, to be refilled by
// the next call unless the worker runs dry and takes it first.
func (p *pool) FlushIdle() {
	for s, b := range p.pend {
		if b == nil {
			continue
		}
		sp := &p.spill[s]
		sp.mu.Lock()
		if len(p.chans[s]) > 0 {
			sp.ops, sp.held, p.pend[s] = b, true, nil
		}
		sp.mu.Unlock()
		if p.pend[s] != nil {
			p.idleFlushes++
			p.flush(s)
		}
	}
}

// unspill takes shard s's spilled batch back, unless its worker took it.
func (p *pool) unspill(s int) {
	if sp := &p.spill[s]; sp.held {
		sp.mu.Lock()
		p.pend[s], sp.ops, sp.held = sp.ops, nil, false
		sp.mu.Unlock()
	}
}

// takeSpill hands shard s's worker the spilled batch once its lane is dry.
func (p *pool) takeSpill(s int) (b []op) {
	if sp := &p.spill[s]; len(p.chans[s]) == 0 {
		sp.mu.Lock()
		if len(p.chans[s]) == 0 {
			b, sp.ops = sp.ops, nil
		}
		sp.mu.Unlock()
	}
	return b
}

// drainBarrier flushes every pending batch, then sends each worker a nil
// sentinel batch and waits for all of them to acknowledge it. Because shard
// queues are FIFO, acknowledgement means every previously routed op has been
// fully applied; the WaitGroup gives the producer a happens-before edge over
// the workers' engine writes, and the next channel send orders the producer's
// own engine writes before anything the workers do next.
func (p *pool) drainBarrier() {
	p.flushAll()
	p.barrier.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- nil
	}
	p.barrier.Wait()
}

// stop applies everything enqueued and ends the workers.
func (p *pool) stop() {
	p.flushAll()
	for _, ch := range p.chans {
		close(ch)
	}
	p.wg.Wait()
}

// worker is one shard's goroutine: apply each batch (and a spilled one) in
// FIFO order, run deferred index maintenance, volunteer for propagation.
func (p *pool) worker(s int) {
	defer p.wg.Done()
	e, lane, fan := p.engines[s], p.lanes[s], p.fan
	for batch := range p.chans[s] {
		if batch == nil {
			// Drain barrier: acknowledge, then block on the next receive
			// while the producer owns the engines.
			p.barrier.Done()
			continue
		}
		for ; batch != nil; batch = p.takeSpill(s) {
			for c := 0; c < len(batch); c += join.LocateChunk {
				chunk := batch[c:min(c+join.LocateChunk, len(batch))]
				e.locate(chunk)
				for j := range chunk {
					o := &chunk[j]
					if o.kind == opInsert {
						if lane != nil {
							lane.AppendInsert(o.stream, o.key, o.seq, o.ts)
						}
						e.insert(o)
						continue
					}
					slot := o.idx % fan.capN
					fan.SetBucket(slot, o.bucket, e.probe(o, fan.Bucket(slot, o.bucket)))
					fan.Done(slot)
				}
				e.locs.Reset()
			}
			e.maintain()
			e.updateResident()
			// Return the consumed batch slice for reuse; drop it when the free
			// channel is full (warmup overshoot).
			select {
			case p.free[s] <- batch[:0]:
			default:
			}
			fan.Propagate()
		}
	}
}

// FlushCounts reports how many batch flushes were triggered by the size
// bound and by an idle lane.
func (p *pool) FlushCounts() (size, idle int) {
	return p.sizeFlushes, p.idleFlushes
}
