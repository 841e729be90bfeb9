package paper

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"pimtree/internal/metrics"
)

// Window is the shared sliding window of Section 4: a ring written by the
// stream feeder and read by all join workers, carrying per-tuple indexed
// flags and the per-window edge tuple (earliest non-indexed tuple).
//
// Memory model: the feeder stores key and seq with atomic writes and then
// publishes by storing head; workers load head first, so slot contents for
// seq < head are visible. Slot reuse is safe because capacity >= 4w+slack
// while no index retains an entry older than 2w+slack arrivals (B+-Tree and
// Bw-Tree delete at age w; IM-/PIM-Tree prune at the first merge after
// expiry, age < (1+m)w <= 2w) and RunShared never admits into a slot an
// active task's probes still read.
type Window struct {
	slots []slot
	mask  uint64

	// head, edge, and edgeLock each get their own cache line: head is
	// written per admission, edge per advancement, and both are read by
	// every worker on every lookup — sharing a line would ping-pong it.
	_        [64]byte
	head     atomic.Uint64
	_        [56]byte
	edge     atomic.Uint64 // seq of the earliest non-indexed tuple
	_        [56]byte
	edgeLock atomic.Bool // try-mutex guarding edge advancement (§4.1)
	_        [63]byte
}

// slot packs one tuple's fields so an append or a validation touches a
// single cache line (4 slots per line) instead of three parallel arrays.
type slot struct {
	key     atomic.Uint32
	indexed atomic.Uint32
	seq     atomic.Uint64
}

// NewWindow returns a shared window of length w with room for at
// least inflight unprocessed arrivals beyond the stale-reference guard.
func NewWindow(w int, inflight int) *Window {
	if w <= 0 {
		panic(fmt.Sprintf("paper: window length %d must be positive", w))
	}
	if inflight < 0 {
		inflight = 0
	}
	capacity := uint64(1) << bits.Len64(4*uint64(w)+uint64(inflight)+1)
	c := &Window{
		slots: make([]slot, capacity),
		mask:  capacity - 1,
	}
	// Mark the pristine ring as "seq = +inf" so stale lookups before first
	// wrap cannot alias sequence 0.
	for i := range c.slots {
		c.slots[i].seq.Store(^uint64(0))
	}
	return c
}

// Head returns the next sequence number (tl snapshots load this).
func (c *Window) Head() uint64 { return c.head.Load() }

// Edge returns the sequence number of the earliest non-indexed tuple.
func (c *Window) Edge() uint64 { return c.edge.Load() }

// Append is called by the single stream feeder. It writes the tuple and
// publishes it by advancing head.
func (c *Window) Append(key uint32) (ref uint32, seq uint64) {
	seq = c.head.Load()
	ref = uint32(seq & c.mask)
	s := &c.slots[ref]
	s.key.Store(key)
	s.indexed.Store(0)
	s.seq.Store(seq)
	metrics.Store(16)
	c.head.Store(seq + 1)
	return ref, seq
}

// Get returns the key and sequence number currently stored at ref, loading
// seq twice to detect a concurrent slot reuse (in which case ok is false and
// the entry must be treated as stale).
func (c *Window) Get(ref uint32) (key uint32, seq uint64, ok bool) {
	s := &c.slots[ref]
	s1 := s.seq.Load()
	key = s.key.Load()
	s2 := s.seq.Load()
	metrics.Load(16)
	return key, s1, s1 == s2
}

// KeyAt returns the key of the tuple with sequence number seq, which must be
// published and not yet overwritten (callers pass seq < a head snapshot they
// hold, within the reuse guard).
func (c *Window) KeyAt(seq uint64) uint32 {
	metrics.Load(8)
	return c.slots[seq&c.mask].key.Load()
}

// RefOf returns the ring reference for sequence number seq.
func (c *Window) RefOf(seq uint64) uint32 { return uint32(seq & c.mask) }

// Backlog returns the number of published tuples not yet indexed (head -
// edge); the merge protocol bounds admissions with it.
func (c *Window) Backlog() uint64 {
	h := c.head.Load()
	e := c.edge.Load()
	if h < e {
		return 0
	}
	return h - e
}

// MarkIndexed flags the tuple with sequence number seq as inserted into its
// index (step 3 of the worker loop, Section 4.1).
func (c *Window) MarkIndexed(seq uint64) {
	c.slots[seq&c.mask].indexed.Store(1)
	metrics.Store(4)
}

// TryAdvanceEdge implements the edge-tuple update of Section 4.1: a
// test-and-set guarded walk that advances the edge past every consecutively
// indexed tuple. If another thread holds the lock the call returns
// immediately (the paper's "avoid the edge tuple update and continue").
func (c *Window) TryAdvanceEdge() {
	// Cheap pre-check: if the tuple at the edge is not indexed, there is
	// nothing to advance — skip the lock CAS (which would dirty the line).
	e := c.edge.Load()
	if e >= c.head.Load() || c.slots[e&c.mask].indexed.Load() == 0 {
		return
	}
	if !c.edgeLock.CompareAndSwap(false, true) {
		return
	}
	e = c.edge.Load()
	head := c.head.Load()
	start := e
	for e < head && c.slots[e&c.mask].indexed.Load() == 1 {
		e++
	}
	if e != start {
		c.edge.Store(e)
	}
	c.edgeLock.Store(false)
}

// ScanRange invokes emit for every published tuple with lo <= seq < hi,
// reading keys directly. This is the linear search of the non-indexed window
// region between the edge tuple and tl (Figure 6).
func (c *Window) ScanRange(lo, hi uint64, emit func(key uint32, seq uint64) bool) {
	for s := lo; s < hi; s++ {
		metrics.Load(8)
		if !emit(c.slots[s&c.mask].key.Load(), s) {
			return
		}
	}
}

// Capacity returns the ring capacity.
func (c *Window) Capacity() int { return len(c.slots) }
