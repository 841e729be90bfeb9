// Package window implements the single-writer sliding windows of Section
// 2.1: count windows over a ring (Ring) and time windows (TimeRing). The
// shared window of Section 4 lives with the shared-index join in
// internal/paper.
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
// stale reference to it; see NewRing for the exact invariant.
package window

import (
	"fmt"
	"math/bits"

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

// pow2Ceil returns the smallest power of two >= n (minimum 2).
func pow2Ceil(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	return 1 << (64 - bits.LeadingZeros64(n-1))
}
