package window

import (
	"fmt"

	"pimtree/internal/kv"
)

// TimeRing is the time-based sliding window extension. Section 2.1 notes
// that the paper's approach carries over to time-based windows without
// technical limitation; this type realizes that claim for the
// single-threaded IBWJ driver (see package join).
//
// Tuples carry logical timestamps (any monotonically non-decreasing uint64,
// e.g. nanoseconds). A tuple is live while now - ts < span. Because the
// population of a time window is unbounded, the ring grows on demand. A
// reference names a tuple by sequence, not by slot: it is the low 32 bits of
// the sequence number, the slot is seq & mask, and the sequence is rebuilt
// from head. Growth therefore only copies, and every reference an index
// holds stays valid across it, for as long as fewer than 2^32 tuples are
// live.
type TimeRing struct {
	keys  []uint32
	times []uint64
	mask  uint64
	span  uint64
	head  uint64 // next sequence number
	tail  uint64 // earliest live sequence number
	now   uint64 // largest timestamp observed
}

// NewTimeRing returns a time-based window covering span timestamp units,
// with initial capacity hint initialCap (rounded up to a power of two).
func NewTimeRing(span uint64, initialCap int) *TimeRing {
	if span == 0 {
		panic("window: time span must be positive")
	}
	if initialCap < 16 {
		initialCap = 16
	}
	capacity := pow2Ceil(uint64(initialCap))
	return &TimeRing{
		keys:  make([]uint32, capacity),
		times: make([]uint64, capacity),
		mask:  capacity - 1,
		span:  span,
	}
}

// Count returns the number of live tuples.
func (r *TimeRing) Count() int { return int(r.head - r.tail) }

// NextSeq returns the sequence number the next Append will assign.
func (r *TimeRing) NextSeq() uint64 { return r.head }

// Append inserts a tuple with timestamp ts (must be >= every prior ts) and
// invokes onExpire for every tuple that the advancing time front evicts.
// The returned ref is uint32(seq).
func (r *TimeRing) Append(key uint32, ts uint64, onExpire func(kv.Pair)) (ref uint32, seq uint64) {
	if ts < r.now {
		panic(fmt.Sprintf("window: timestamp %d regressed below %d", ts, r.now))
	}
	r.now = ts
	r.evict(onExpire)
	if r.head-r.tail == uint64(len(r.keys)) {
		r.grow()
	}
	seq = r.head
	r.keys[seq&r.mask] = key
	r.times[seq&r.mask] = ts
	r.head = seq + 1
	return uint32(seq), seq
}

// AdvanceTime moves the time front without inserting (e.g. on a heartbeat),
// expiring tuples as needed.
func (r *TimeRing) AdvanceTime(ts uint64, onExpire func(kv.Pair)) {
	if ts < r.now {
		return
	}
	r.now = ts
	r.evict(onExpire)
}

// evict drops the tuples the time front has passed, so that every sequence
// in [tail, head) is inside the window.
func (r *TimeRing) evict(onExpire func(kv.Pair)) {
	for r.tail < r.head {
		slot := r.tail & r.mask
		if r.now-r.times[slot] < r.span {
			break
		}
		if onExpire != nil {
			onExpire(kv.Pair{Key: r.keys[slot], Ref: uint32(r.tail)})
		}
		r.tail++
	}
}

// grow doubles the ring, copying each live tuple to slot seq & newMask.
func (r *TimeRing) grow() {
	newCap := uint64(len(r.keys)) * 2
	keys := make([]uint32, newCap)
	times := make([]uint64, newCap)
	for s := r.tail; s < r.head; s++ {
		keys[s&(newCap-1)] = r.keys[s&r.mask]
		times[s&(newCap-1)] = r.times[s&r.mask]
	}
	r.keys, r.times = keys, times
	r.mask = newCap - 1
}

// seq rebuilds the sequence number ref names: the one in (head-2^32, head]
// whose low 32 bits are ref. Where head is below 2^32 and ref is not, the
// subtraction wraps to a sequence at or above head, which no live tuple has.
func (r *TimeRing) seq(ref uint32) uint64 { return r.head - uint64(uint32(r.head)-ref) }

// Get resolves a ring reference to its tuple's key and sequence number.
func (r *TimeRing) Get(ref uint32) (key uint32, seq uint64) {
	seq = r.seq(ref)
	return r.keys[seq&r.mask], seq
}

// Live reports whether the tuple ref names is inside the window.
func (r *TimeRing) Live(ref uint32) bool {
	seq := r.seq(ref)
	return seq >= r.tail && seq < r.head
}
