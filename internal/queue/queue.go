// Package queue holds the pull side's match buffer, shared by the root
// Engine and the cluster Frontend.
package queue

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Queue is an unbounded FIFO between propagation goroutines (Push) and one
// consumer (NextBatch). Producers never block on it — bounding it would deadlock
// a serial engine, whose producer and consumer can share a goroutine — so it
// only buffers while armed: a consumer that walks away disarms it, which is
// what keeps an abandoned pull side from growing forever.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	armed  atomic.Bool
	buf    []T
	head   int
	closed bool
}

// New returns an empty, disarmed queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Arm starts a fresh collection window, dropping any residue a disarmed
// consumer (or a push that raced the disarm) left behind. Arming an armed
// queue is a no-op.
func (q *Queue[T]) Arm() {
	if !q.armed.Swap(true) {
		q.reset()
	}
}

// Disarm stops collection and drops the buffer. A push that loaded armed
// just before the store may still append one item; it is bounded residue
// that the next Arm clears.
func (q *Queue[T]) Disarm() {
	q.armed.Store(false)
	q.reset()
}

// Batches arms the queue and returns its single-use batch iterator: each step
// yields what NextBatch took, in a slice the iterator reuses, so it is valid
// only until the next step. It blocks awaiting further items and ends once
// the queue is closed and drained; breaking out of the loop disarms the
// queue.
func (q *Queue[T]) Batches() iter.Seq[[]T] {
	q.Arm()
	return func(yield func([]T) bool) {
		var buf []T
		for {
			b, ok := q.NextBatch(buf[:0])
			if !ok {
				return
			}
			buf = b
			if !yield(b) {
				q.Disarm()
				return
			}
		}
	}
}

// All is Batches one item at a time.
func (q *Queue[T]) All() iter.Seq[T] {
	batches := q.Batches()
	return func(yield func(T) bool) {
		for b := range batches {
			for _, v := range b {
				if !yield(v) {
					return
				}
			}
		}
	}
}

func (q *Queue[T]) reset() {
	q.mu.Lock()
	q.clear()
	q.mu.Unlock()
}

// maxIdleCap is the largest buffer an empty queue keeps for reuse, in items.
const maxIdleCap = 4096

// clear empties the buffer (mu held). A buffer that a burst grew past
// maxIdleCap is dropped rather than kept, so one burst does not pin its
// high-water capacity for the rest of the session; a smaller one is reused,
// so the steady state does not allocate.
func (q *Queue[T]) clear() {
	if cap(q.buf) > maxIdleCap {
		q.buf = nil
	} else {
		q.buf = q.buf[:0]
	}
	q.head = 0
}

// Push appends v if the queue is armed.
func (q *Queue[T]) Push(v T) {
	if !q.armed.Load() {
		return
	}
	q.mu.Lock()
	q.buf = append(q.buf, v)
	q.cond.Signal()
	q.mu.Unlock()
}

// Close wakes the consumer: NextBatch drains what is buffered, then reports
// false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// maxBatch bounds how many items one NextBatch call moves, so the consumer's
// slice stays small however far it has fallen behind.
const maxBatch = 4096

// NextBatch blocks for at least one item, then appends up to maxBatch of the
// buffered items to dst under one lock acquisition. ok is false once the
// queue is closed and empty.
func (q *Queue[T]) NextBatch(dst []T) (_ []T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head >= len(q.buf) && !q.closed {
		q.cond.Wait()
	}
	if q.head >= len(q.buf) {
		return dst, false
	}
	n := min(len(q.buf)-q.head, maxBatch)
	dst = append(dst, q.buf[q.head:q.head+n]...)
	q.head += n
	switch {
	case q.head == len(q.buf):
		q.clear()
	case q.head >= 1024 && q.head*2 >= len(q.buf):
		// Compact the consumed prefix: a long-lived session whose consumer
		// stays slightly behind would otherwise grow the buffer with every
		// item ever pushed.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return dst, true
}
