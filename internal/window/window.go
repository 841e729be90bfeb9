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
// stale reference to it; see NewRing for the exact invariant. A Ring comes in
// two forms. The keyed one (NewRing) stores each tuple's key and reports the
// expired one to an eagerly deleting index. The keyless one (NewKeylessRing)
// stores nothing: the indexes that prune lazily at merge time ask the window
// only for liveness and sequence numbers. A TimeRing's reference is
// uint32(seq) whatever its capacity, so it survives the ring's growth.
package window

import (
	"fmt"
	"math/bits"

	"pimtree/internal/kv"
	"pimtree/internal/metrics"
)

// Ring is the single-threaded count-based sliding window used by all
// single-threaded join variants.
//
// A keyed ring stores keys only, and a keyless one (keys == nil) nothing.
// Ref = seq mod capacity and appends are consecutive, so the slot at ref was
// last written age(ref) arrivals before the newest tuple; its sequence
// number and its liveness follow from (ref, head) alone.
type Ring struct {
	keys []uint32 // nil in the keyless form
	mask uint64
	w    uint64
	head uint64 // next sequence number to assign
}

// maxCap is the largest ring capacity: refs are 32-bit, and 2^32 slots
// cover every window up to 2^31 (the largest an engine accepts) under the
// 2w invariant of NewRing.
const maxCap = 1 << 32

// NewRing returns a keyed window of length w. The ring capacity is the next
// power of two of at least 2w+2, capped at 2^32, so that references stay
// valid for the full lifetime of delta-merge index entries (which may keep
// an expired tuple for up to m*w more arrivals, m <= 1, before a merge
// prunes it): every index drops an entry before its tuple is 2w arrivals
// old, so the occupant of a slot an entry names is always the tuple the
// entry was inserted for.
func NewRing(w int) *Ring {
	checkLength(w)
	capacity := keyedCap(uint64(w))
	return &Ring{
		keys: make([]uint32, capacity),
		mask: capacity - 1,
		w:    uint64(w),
	}
}

// NewKeylessRing returns a window of length w that stores no keys, for an
// index that prunes lazily (Eager false): Append reports no expired pair and
// Resolve reports key 0. Its capacity is 2^32, so ref = uint32(seq) and a
// reference cannot alias for 2^32 arrivals, whatever w is.
func NewKeylessRing(w int) *Ring {
	checkLength(w)
	return &Ring{mask: maxCap - 1, w: uint64(w)}
}

func checkLength(w int) {
	if w <= 0 {
		panic(fmt.Sprintf("window: length %d must be positive", w))
	}
}

// keyedCap is the capacity of a keyed ring of length w: pow2Ceil(2w+2),
// capped at 2^32. The cap is exact while w <= 2^31, because 2w <= 2^32.
func keyedCap(w uint64) uint64 { return min(pow2Ceil(2*w+2), maxCap) }

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
// just expired (the tuple w arrivals ago), if any; a keyless ring reports
// none. The returned ref is the ring position to store in indexes.
func (r *Ring) Append(key uint32) (ref uint32, seq uint64, expired kv.Pair, hasExpired bool) {
	seq = r.head
	ref = uint32(seq & r.mask)
	if r.keys != nil {
		if seq >= r.w {
			old := (seq - r.w) & r.mask
			expired = kv.Pair{Key: r.keys[old], Ref: uint32(old)}
			hasExpired = true
		}
		r.keys[ref] = key
		metrics.Store(4)
	}
	r.head = seq + 1
	return ref, seq, expired, hasExpired
}

// age returns how many arrivals before the newest tuple (sequence head-1)
// the slot at ref was last written. The occupant's sequence number is
// head-1-age; age >= head means the slot was never written (in particular
// every slot of an empty ring, where head-1 wraps).
func (r *Ring) age(ref uint32) uint64 { return (r.head - 1 - uint64(ref)) & r.mask }

// Live reports whether the tuple currently stored at ref is inside the
// window. Index entries whose tuple slid out fail this check, which is how
// expired tuples are filtered from search results (Section 3.2). Never-
// written slots are not live.
func (r *Ring) Live(ref uint32) bool { return r.age(ref) < r.count() }

// Resolve returns the occupant of ref and whether it is live. A slot that
// was never written reports a sequence number >= Head(); a keyless ring
// reports key 0.
func (r *Ring) Resolve(ref uint32) (key uint32, seq uint64, live bool) {
	age := r.age(ref)
	if r.keys != nil {
		metrics.Load(4)
		key = r.keys[ref]
	}
	return key, r.head - 1 - age, age < r.count()
}

// Scan invokes emit for every live tuple in arrival order. Only a keyed
// ring can be scanned.
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

// pow2Ceil returns the smallest power of two >= n (minimum 2).
func pow2Ceil(n uint64) uint64 {
	if n < 2 {
		return 2
	}
	return 1 << (64 - bits.LeadingZeros64(n-1))
}
