package shard

import (
	"context"
	"sync"
	"sync/atomic"
)

// probeState tracks one arrival's completion across its fan-out lanes,
// padded to a cache line: lanes completing adjacent arrivals would otherwise
// false-share.
type probeState struct {
	pending   atomic.Int32
	completed atomic.Bool
	_         [64 - 5]byte
}

// FanIn is the in-flight completion ring plus the order-preserving merge
// stage, shared by every host that fans one arrival out to several lanes and
// must release the results in arrival order: Router (lanes are shard
// workers), Member (local sub-shard workers) and cluster.Frontend (remote
// nodes). Hosts embed it by value and call Init, then Resize, once.
//
// One goroutine — the host's producer — calls Admit, Open, Publish, Wait and
// Resize. Any goroutine may call Bucket/SetBucket/Done for a share it owns,
// and Propagate. Slot i%Cap tracks arrival i; pushing more than Cap arrivals
// ahead of the retire frontier blocks the producer in Admit — the runtime's
// backpressure.
//
// Each slot's bucket row is allocated once (one bucket per lane) and the
// bucket slices are recycled across ring tenants; nbuck bounds the row to the
// arrival's actual fan-out, so the steady-state path never allocates.
//
// # Ordered propagation
//
// Propagate emits under a try-lock, so lanes never queue behind each other.
// A lane whose completion lost the try-lock race while the holder was
// mid-pass must not strand its arrival, so the holder re-checks the head
// after releasing and loops while it is complete. Go's atomics are
// sequentially consistent, which makes the re-check sound: the loser's
// completed.Store precedes its failed CAS, the holder's propLock.Store(false)
// precedes its re-check load, and the failed CAS observed the lock held — so
// the re-check is ordered after the completion. Pure readers (MatchCount,
// Published) must never take propLock: a pass that lost its CAS to a reader
// would strand a completed head, because only propagators re-check.
//
// # Backpressure handshake
//
// The producer parks on bpCond while the ring is full (Admit) or non-empty
// (Wait). A propagator broadcasts after advancing the frontier, but only when
// bpWaiters says someone is parked, which keeps the merge stage off the mutex
// in steady state. The waiter increments bpWaiters before re-checking the
// frontier and the propagator loads bpWaiters after storing the frontier, so
// under sequential consistency at least one of them sees the other: no lost
// wakeup.
type FanIn struct {
	// Fields are grouped by writer and the groups padded apart: the lanes
	// reach the ring through the first group on every share, and must not
	// lose that line to the producer's or a propagator's per-arrival stores.
	capN    int
	results [][][]uint64 // [slot][fan-out bucket][match seqs]
	nbuck   []int32      // buckets in use per slot (set by Open)
	state   []probeState
	// onFull ships whatever the host still buffers: the ops a full ring is
	// waiting on may sit in its pending batches.
	onFull func()
	// emit receives each retired arrival exactly once, in arrival order, with
	// the buckets it fanned out to (in lane order, which is key-range order
	// for a monotone partitioner). It runs under propLock on whichever
	// goroutine holds the pass; the bucket slices are recycled ring storage,
	// valid only during the call. Nil discards.
	emit func(slot int, buckets [][]uint64)
	_    [64]byte

	n   int          // arrivals admitted (producer only)
	pub atomic.Int64 // arrivals published to propagators
	_   [64]byte

	propLock atomic.Bool
	propHead atomic.Int64 // retire frontier
	matches  uint64       // guarded by propLock
	matchesA atomic.Uint64
	_        [64]byte

	bpMu      sync.Mutex
	bpCond    *sync.Cond
	bpWaiters atomic.Int32
}

// Init installs the host callbacks; Resize must follow before first use.
func (f *FanIn) Init(onFull func(), emit func(slot int, buckets [][]uint64)) {
	f.bpCond = sync.NewCond(&f.bpMu)
	f.onFull, f.emit = onFull, emit
}

// Resize gives the ring capacity slots, each width buckets wide. Only legal
// from the producer while the ring is empty — an epoch barrier guarantees
// that. A new width only replaces the bucket rows, which nobody touches
// except on behalf of an in-flight arrival. A new capacity also replaces the
// state row, which a propagator's post-release re-check reads: it further
// requires every lane to be parked behind something that orders its last
// Propagate before this call and this call before its next share (Router's
// drain barrier).
func (f *FanIn) Resize(capacity, width int) {
	if int(f.propHead.Load()) != f.n {
		panic("shard: FanIn resized while arrivals are in flight")
	}
	if capacity != f.capN {
		f.capN = capacity
		f.results = make([][][]uint64, capacity)
		f.nbuck = make([]int32, capacity)
		f.state = make([]probeState, capacity)
	}
	for i := range f.results {
		f.results[i] = make([][]uint64, width)
	}
}

// Cap returns the ring capacity.
func (f *FanIn) Cap() int { return f.capN }

// Admit claims the ring slot for the next arrival and returns its ordinal
// with it. On a full ring it flushes the host's pending batches, runs one
// propagate pass (an arrival completed entirely by the producer has no lane
// to propagate it), and parks until the frontier retires the slot's previous
// tenant.
func (f *FanIn) Admit() (idx, slot int) {
	if f.n-int(f.propHead.Load()) >= f.capN {
		f.onFull()
		f.Propagate()
		f.bpMu.Lock()
		f.bpWaiters.Add(1)
		for f.n-int(f.propHead.Load()) >= f.capN {
			f.bpCond.Wait()
		}
		f.bpWaiters.Add(-1)
		f.bpMu.Unlock()
	}
	slot = f.n % f.capN
	f.state[slot].completed.Store(false)
	return f.n, slot
}

// Open records the admitted slot's fan-out width: that many Done calls
// complete it.
func (f *FanIn) Open(slot, width int) {
	f.nbuck[slot] = int32(width)
	f.state[slot].pending.Store(int32(width))
}

// Bucket hands out bucket b of a slot for its owner to append into. The
// storage is the previous tenant's, retired before the slot was re-admitted.
func (f *FanIn) Bucket(slot, b int) []uint64 { return f.results[slot][b] }

// SetBucket replaces bucket b of a slot (nil for a share that yields nothing).
func (f *FanIn) SetBucket(slot, b int, seqs []uint64) { f.results[slot][b] = seqs }

// Done marks one share of a slot finished.
func (f *FanIn) Done(slot int) {
	if f.state[slot].pending.Add(-1) == 0 {
		f.state[slot].completed.Store(true)
	}
}

// Publish makes the admitted arrival visible to propagators.
func (f *FanIn) Publish() {
	f.n++
	f.pub.Store(int64(f.n))
}

// Published returns the number of arrivals published. Safe from any
// goroutine.
func (f *FanIn) Published() int { return int(f.pub.Load()) }

// MatchCount returns the matches retired so far. Safe from any goroutine.
func (f *FanIn) MatchCount() uint64 { return f.matchesA.Load() }

// Propagate is the merge stage: retire every completed arrival at the ring
// head, in arrival order (see the type comment for the protocol).
func (f *FanIn) Propagate() {
	for {
		if !f.propLock.CompareAndSwap(false, true) {
			return
		}
		pub := int(f.pub.Load())
		head := int(f.propHead.Load())
		start := head
		for head < pub && f.state[head%f.capN].completed.Load() {
			h := head % f.capN
			buckets := f.results[h][:f.nbuck[h]]
			for _, b := range buckets {
				f.matches += uint64(len(b))
			}
			if f.emit != nil {
				f.emit(h, buckets)
			}
			head++
		}
		if head != start {
			// The match mirror first: whoever observes the advanced frontier
			// must also observe the matches behind it.
			f.matchesA.Store(f.matches)
			f.propHead.Store(int64(head))
		}
		f.propLock.Store(false)
		if head != start && f.bpWaiters.Load() > 0 {
			f.bpMu.Lock()
			f.bpCond.Broadcast()
			f.bpMu.Unlock()
		}
		if head >= int(f.pub.Load()) || !f.state[head%f.capN].completed.Load() {
			return
		}
	}
}

// Wait blocks until every published arrival has retired, or ctx ends. The
// host must have flushed its pending batches first.
func (f *FanIn) Wait(ctx context.Context) error {
	f.Propagate()
	stop := context.AfterFunc(ctx, func() {
		f.bpMu.Lock()
		f.bpCond.Broadcast()
		f.bpMu.Unlock()
	})
	defer stop()
	f.bpMu.Lock()
	defer f.bpMu.Unlock()
	f.bpWaiters.Add(1)
	defer f.bpWaiters.Add(-1)
	for int(f.propHead.Load()) != f.n {
		if err := ctx.Err(); err != nil {
			return err
		}
		f.bpCond.Wait()
	}
	return nil
}
