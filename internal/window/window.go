// Package window implements the sliding windows of Section 2.1 and the
// concurrent-window bookkeeping of Section 4 (edge tuple, indexed flags,
// tl/te boundaries).
//
// Tuples are identified by monotonically increasing sequence numbers. A
// count-based window of length w contains the tuples with the w highest
// sequence numbers: tuple s is live while head-w <= s < head, where head is
// the sequence number the next arrival will take. Expiry is therefore a
// sequence comparison; this is equivalent to the paper's per-tuple expired
// flag (a tuple is "flagged" the moment the window slides past it) but needs
// no writes on the expiry path.
//
// Window references (the 4-byte Ref stored in every index element) are ring
// positions: Ref = seq mod capacity. Capacity exceeds the window length by
// enough slack that a slot is never reused while any index may still hold a
// stale reference to it; see NewRing and NewConcurrent for the exact
// invariant.
package window

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"pimtree/internal/kv"
	"pimtree/internal/metrics"
)

// Ring is the single-threaded count-based sliding window used by all
// single-threaded join variants and by the per-core private windows of the
// round-robin joins.
//
// Only keys are stored. Ref = seq mod capacity and appends are consecutive,
// so the slot at ref was last written age(ref) arrivals before the newest
// tuple; its sequence number and its liveness follow from (ref, head) alone.
type Ring struct {
	keys []uint32
	mask uint64
	w    uint64
	head uint64 // next sequence number to assign
}

// NewRing returns a window of length w. The ring capacity is the next power
// of two of at least 2w+2 so that references stay valid for the full
// lifetime of delta-merge index entries (which may keep an expired tuple for
// up to m*w more arrivals, m <= 1, before a merge prunes it): every index
// drops an entry before its tuple is 2w arrivals old, so the occupant of a
// slot an entry names is always the tuple the entry was inserted for.
func NewRing(w int) *Ring {
	if w <= 0 {
		panic(fmt.Sprintf("window: length %d must be positive", w))
	}
	capacity := pow2Ceil(2*uint64(w) + 2)
	return &Ring{
		keys: make([]uint32, capacity),
		mask: capacity - 1,
		w:    uint64(w),
	}
}

// W returns the window length.
func (r *Ring) W() int { return int(r.w) }

// Head returns the next sequence number to be assigned.
func (r *Ring) Head() uint64 { return r.head }

// count is min(head, w), the number of live tuples.
func (r *Ring) count() uint64 {
	if r.head < r.w {
		return r.head
	}
	return r.w
}

// Count returns the number of live tuples (at most w).
func (r *Ring) Count() int { return int(r.count()) }

// Append inserts a tuple, slides the window, and reports the element that
// just expired (the tuple w arrivals ago), if any. The returned ref is the
// ring position to store in indexes.
func (r *Ring) Append(key uint32) (ref uint32, seq uint64, expired kv.Pair, hasExpired bool) {
	seq = r.head
	ref = uint32(seq & r.mask)
	if seq >= r.w {
		old := seq - r.w
		expired = kv.Pair{Key: r.keys[old&r.mask], Ref: uint32(old & r.mask)}
		hasExpired = true
	}
	r.keys[ref] = key
	metrics.Store(4)
	r.head = seq + 1
	return ref, seq, expired, hasExpired
}

// age returns how many arrivals before the newest tuple (sequence head-1)
// the slot at ref was last written. The occupant's sequence number is
// head-1-age; age >= head means the slot was never written (in particular
// every slot of an empty ring, where head-1 wraps).
func (r *Ring) age(ref uint32) uint64 { return (r.head - 1 - uint64(ref)) & r.mask }

// Get resolves a ring reference to its current occupant. A slot that was
// never written reports key 0 and a sequence number >= Head().
func (r *Ring) Get(ref uint32) (key uint32, seq uint64) {
	metrics.Load(4)
	return r.keys[ref], r.head - 1 - r.age(ref)
}

// Live reports whether the tuple currently stored at ref is inside the
// window. Index entries whose tuple slid out fail this check, which is how
// expired tuples are filtered from search results (Section 3.2). Never-
// written slots are not live.
func (r *Ring) Live(ref uint32) bool { return r.age(ref) < r.count() }

// LiveSeq reports whether sequence number seq is inside the window.
func (r *Ring) LiveSeq(seq uint64) bool {
	return seq < r.head && r.head-seq <= r.w
}

// Resolve returns the occupant of ref only if it is live.
func (r *Ring) Resolve(ref uint32) (key uint32, seq uint64, live bool) {
	age := r.age(ref)
	metrics.Load(4)
	return r.keys[ref], r.head - 1 - age, age < r.count()
}

// Scan invokes emit for every live tuple in arrival order.
func (r *Ring) Scan(emit func(key uint32, seq uint64) bool) {
	lo := uint64(0)
	if r.head > r.w {
		lo = r.head - r.w
	}
	for s := lo; s < r.head; s++ {
		metrics.Load(12)
		if !emit(r.keys[s&r.mask], s) {
			return
		}
	}
}

// Capacity returns the ring capacity (for memory accounting).
func (r *Ring) Capacity() int { return len(r.keys) }

// Concurrent is the shared sliding window of Section 4: a ring written by the
// stream feeder and read by all join workers, carrying per-tuple indexed
// flags and the per-window edge tuple (earliest non-indexed tuple).
//
// Memory model: the feeder stores key and seq with atomic writes and then
// publishes by storing head; workers load head first, so slot contents for
// seq < head are visible. Slot reuse is safe because capacity >= 4w+slack
// while no index retains an entry older than 2w+slack arrivals (B+-Tree and
// Bw-Tree delete at age w; IM-/PIM-Tree prune at the first merge after
// expiry, age < (1+m)w <= 2w).
type Concurrent struct {
	slots []cslot
	mask  uint64
	w     uint64

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

// cslot packs one tuple's fields so an append or a validation touches a
// single cache line (4 slots per line) instead of three parallel arrays.
type cslot struct {
	key     atomic.Uint32
	indexed atomic.Uint32
	seq     atomic.Uint64
}

// NewConcurrent returns a concurrent window of length w with room for at
// least inflight unprocessed arrivals beyond the stale-reference guard.
func NewConcurrent(w int, inflight int) *Concurrent {
	if w <= 0 {
		panic(fmt.Sprintf("window: length %d must be positive", w))
	}
	if inflight < 0 {
		inflight = 0
	}
	capacity := pow2Ceil(4*uint64(w) + uint64(inflight) + 2)
	c := &Concurrent{
		slots: make([]cslot, capacity),
		mask:  capacity - 1,
		w:     uint64(w),
	}
	// Mark the pristine ring as "seq = +inf" so stale lookups before first
	// wrap cannot alias sequence 0.
	for i := range c.slots {
		c.slots[i].seq.Store(^uint64(0))
	}
	return c
}

// W returns the window length.
func (c *Concurrent) W() int { return int(c.w) }

// Head returns the next sequence number (tl snapshots load this).
func (c *Concurrent) Head() uint64 { return c.head.Load() }

// Edge returns the sequence number of the earliest non-indexed tuple.
func (c *Concurrent) Edge() uint64 { return c.edge.Load() }

// Append is called by the single stream feeder. It writes the tuple and
// publishes it by advancing head.
func (c *Concurrent) Append(key uint32) (ref uint32, seq uint64) {
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
func (c *Concurrent) Get(ref uint32) (key uint32, seq uint64, ok bool) {
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
func (c *Concurrent) KeyAt(seq uint64) uint32 {
	metrics.Load(8)
	return c.slots[seq&c.mask].key.Load()
}

// RefOf returns the ring reference for sequence number seq.
func (c *Concurrent) RefOf(seq uint64) uint32 { return uint32(seq & c.mask) }

// Backlog returns the number of published tuples not yet indexed (head -
// edge); the merge protocol bounds admissions with it.
func (c *Concurrent) Backlog() uint64 {
	h := c.head.Load()
	e := c.edge.Load()
	if h < e {
		return 0
	}
	return h - e
}

// MarkIndexed flags the tuple with sequence number seq as inserted into its
// index (step 3 of the worker loop, Section 4.1).
func (c *Concurrent) MarkIndexed(seq uint64) {
	c.slots[seq&c.mask].indexed.Store(1)
	metrics.Store(4)
}

// IsIndexed reports whether the tuple with sequence number seq has been
// inserted into its index.
func (c *Concurrent) IsIndexed(seq uint64) bool {
	return c.slots[seq&c.mask].indexed.Load() == 1
}

// TryAdvanceEdge implements the edge-tuple update of Section 4.1: a
// test-and-set guarded walk that advances the edge past every consecutively
// indexed tuple. If another thread holds the lock the call returns
// immediately (the paper's "avoid the edge tuple update and continue").
func (c *Concurrent) TryAdvanceEdge() {
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

// SetEdge forcibly positions the edge; the merge coordinator uses it when
// replaying pending updates (Section 4.2, phase 2).
func (c *Concurrent) SetEdge(seq uint64) { c.edge.Store(seq) }

// ScanRange invokes emit for every published tuple with lo <= seq < hi,
// reading keys directly. This is the linear search of the non-indexed window
// region between the edge tuple and tl (Figure 6).
func (c *Concurrent) ScanRange(lo, hi uint64, emit func(key uint32, seq uint64) bool) {
	for s := lo; s < hi; s++ {
		metrics.Load(8)
		if !emit(c.slots[s&c.mask].key.Load(), s) {
			return
		}
	}
}

// Capacity returns the ring capacity.
func (c *Concurrent) Capacity() int { return len(c.slots) }

// pow2Ceil returns the smallest power of two >= n (minimum 2).
func pow2Ceil(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	return 1 << (64 - bits.LeadingZeros64(n-1))
}
