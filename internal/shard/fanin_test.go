package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fanShare is one fan-out share of one arrival, as a host would buffer it in
// a pending batch before a lane completes it.
type fanShare struct{ arrival, slot, bucket int }

// fanHarness drives a bare FanIn the way its hosts do: one producer admits
// arrivals and buffers their shares, lanes complete them out of order and
// volunteer for propagation, and emit checks the merge stage's contract.
type fanHarness struct {
	t     *testing.T
	f     FanIn
	width int // maximum fan-out

	rng     *rand.Rand
	pending []fanShare // producer-side buffer, shipped shuffled
	lanes   []chan fanShare
	wg      sync.WaitGroup
	parked  sync.WaitGroup // lanes that acknowledged park's sentinel
	buckets int            // buckets opened so far: one match each

	emitted int // arrivals seen by emit (guarded by the FanIn's propLock)
}

func fanWidth(arrival, max int) int       { return 1 + arrival*7%max }
func fanValue(arrival, bucket int) uint64 { return uint64(arrival)<<8 | uint64(bucket) }

func newFanHarness(t *testing.T, capacity, width, lanes int) *fanHarness {
	h := &fanHarness{t: t, width: width, rng: rand.New(rand.NewSource(int64(capacity)))}
	h.f.Init(h.ship, h.emit)
	h.f.Resize(capacity, width)
	for i := 0; i < lanes; i++ {
		ch := make(chan fanShare, 64)
		h.lanes = append(h.lanes, ch)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			for s := range ch {
				if s.arrival < 0 {
					h.parked.Done()
					continue
				}
				h.f.SetBucket(s.slot, s.bucket, append(h.f.Bucket(s.slot, s.bucket)[:0], fanValue(s.arrival, s.bucket)))
				h.f.Done(s.slot)
				h.f.Propagate()
			}
		}()
	}
	return h
}

// emit must see every arrival exactly once, in arrival order, with exactly
// the buckets its lanes wrote.
func (h *fanHarness) emit(slot int, buckets [][]uint64) {
	i := h.emitted
	h.emitted++
	if slot != i%h.f.Cap() || len(buckets) != fanWidth(i, h.width) {
		h.t.Errorf("arrival %d: emitted as slot %d with %d buckets", i, slot, len(buckets))
		return
	}
	for b, got := range buckets {
		if len(got) != 1 || got[0] != fanValue(i, b) {
			h.t.Errorf("arrival %d bucket %d: got %v", i, b, got)
		}
	}
}

// ship is the host flush: hand every buffered share to a lane, shuffled, so
// slots complete in an order unrelated to admission.
func (h *fanHarness) ship() {
	h.rng.Shuffle(len(h.pending), func(i, j int) { h.pending[i], h.pending[j] = h.pending[j], h.pending[i] })
	for _, s := range h.pending {
		h.lanes[h.rng.Intn(len(h.lanes))] <- s
	}
	h.pending = h.pending[:0]
}

// push admits n arrivals, buffering up to hold shares between flushes.
func (h *fanHarness) push(n, hold int) {
	for ; n > 0; n-- {
		i, slot := h.f.Admit()
		w := fanWidth(i, h.width)
		h.buckets += w
		h.f.Open(slot, w)
		for b := 0; b < w; b++ {
			h.pending = append(h.pending, fanShare{i, slot, b})
		}
		h.f.Publish()
		if len(h.pending) >= hold {
			h.ship()
		}
	}
}

// drain ships what is buffered and waits for the ring to empty.
func (h *fanHarness) drain() {
	h.ship()
	if err := h.f.Wait(context.Background()); err != nil {
		h.t.Fatalf("Wait: %v", err)
	}
}

// park is the host's drain barrier: on return every lane has finished its
// last Propagate and sits at its channel receive.
func (h *fanHarness) park() {
	h.parked.Add(len(h.lanes))
	for _, ch := range h.lanes {
		ch <- fanShare{arrival: -1}
	}
	h.parked.Wait()
}

// finish drains the ring and stops the lanes.
func (h *fanHarness) finish(want int) {
	h.drain()
	for _, ch := range h.lanes {
		close(ch)
	}
	h.wg.Wait()
	if h.emitted != want || h.f.Published() != want {
		h.t.Fatalf("emitted %d of %d published arrivals, want %d", h.emitted, h.f.Published(), want)
	}
	if got := h.f.MatchCount(); got != uint64(h.buckets) {
		h.t.Fatalf("MatchCount %d, want %d", got, h.buckets)
	}
}

// TestFanInShuffledCompletion: four lanes finish slots in shuffled order;
// emit still sees every arrival exactly once, in arrival order.
func TestFanInShuffledCompletion(t *testing.T) {
	const n = 20000
	h := newFanHarness(t, 256, 4, 4)
	h.push(n, 300) // holds more shares than the ring has slots: Admit must flush
	h.finish(n)
}

// TestFanInTinyRing: with one or two slots every Admit parks, so the run only
// finishes if the waiter handshake never loses a wakeup.
func TestFanInTinyRing(t *testing.T) {
	const n = 100000
	for _, capacity := range []int{1, 2} {
		h := newFanHarness(t, capacity, 2, 4)
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.push(n, 1<<30) // never flushes on its own: only a full ring does
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("capacity %d: producer stuck after %d arrivals (lost wakeup)", capacity, h.f.Published())
		}
		h.finish(n)
	}
}

// TestFanInWaitCancel: Wait gives up with the context's error while an
// arrival is still in flight, and succeeds once it retires.
func TestFanInWaitCancel(t *testing.T) {
	h := newFanHarness(t, 8, 2, 1)
	h.push(3, 1<<30)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if err := h.f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a stuck ring returned %v, want context.Canceled", err)
	}
	h.finish(3)
}

// TestFanInResize: an empty ring may change width under live lanes and
// capacity behind a lane barrier; a ring with arrivals in flight must refuse.
func TestFanInResize(t *testing.T) {
	h := newFanHarness(t, 4, 2, 2)
	h.push(10, 3)
	h.drain()
	h.width = 3
	h.f.Resize(4, 3)
	h.push(100, 5)

	h.drain()
	h.park()
	h.f.Resize(16, 3)
	if h.f.Cap() != 16 {
		t.Fatalf("Cap %d after Resize(16, 3)", h.f.Cap())
	}
	h.push(100, 20)

	h.push(1, 1<<30) // buffered, never shipped: in flight
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Resize on a non-empty ring did not panic")
			}
		}()
		h.f.Resize(32, 3)
	}()
	h.finish(211)
}
