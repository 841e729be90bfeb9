// Package kv defines the 8-byte index element used throughout the
// reproduction: a 4-byte join key plus a 4-byte sliding-window reference,
// exactly the element size evaluated in the paper (Figure 11a).
//
// All index structures in this repository (B+-Tree, immutable B+-Tree,
// chained index, Bw-Tree, IM-Tree, PIM-Tree) store Pair values. Ordering is
// by Key first and Ref second, so that duplicates of the same key have a
// stable, deterministic order and set-difference operations during merges are
// well defined.
package kv

import "sort"

// Pair is one index element: a join key and a reference into the sliding
// window ring buffer that owns the tuple.
type Pair struct {
	Key uint32
	Ref uint32
}

// Less reports whether p orders before q (by Key, then Ref).
func (p Pair) Less(q Pair) bool {
	if p.Key != q.Key {
		return p.Key < q.Key
	}
	return p.Ref < q.Ref
}

// Compare returns -1, 0, or +1 comparing p to q in (Key, Ref) order.
func (p Pair) Compare(q Pair) int {
	switch {
	case p.Key < q.Key:
		return -1
	case p.Key > q.Key:
		return 1
	case p.Ref < q.Ref:
		return -1
	case p.Ref > q.Ref:
		return 1
	default:
		return 0
	}
}

// Sort sorts ps in (Key, Ref) order in place.
func Sort(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// IsSorted reports whether ps is in (Key, Ref) order.
func IsSorted(ps []Pair) bool {
	for i := 1; i < len(ps); i++ {
		if ps[i].Less(ps[i-1]) {
			return false
		}
	}
	return true
}

// LowerBound returns the index of the first element of sorted ps whose key is
// >= key. It returns len(ps) when every key is smaller.
func LowerBound(ps []Pair, key uint32) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].Key >= key })
}

// UpperBound returns the index of the first element of sorted ps whose key is
// > key.
func UpperBound(ps []Pair, key uint32) int {
	return sort.Search(len(ps), func(i int) bool { return ps[i].Key > key })
}

// Merge merges two sorted slices into a newly allocated sorted slice.
// It is the sorted-run merge used when combining TI and the surviving part of
// TS during an IM-/PIM-Tree merge.
func Merge(a, b []Pair) []Pair {
	out := make([]Pair, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Less(b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MergeFiltered merges two sorted slices, keeping only elements that satisfy
// live. This is the expired-tuple elimination pass of the IM-/PIM-Tree merge:
// the caller passes a liveness predicate over window references. The result
// is allocated once with room for survivors elements — the caller's count of
// those live keeps, capped at len(a)+len(b) — and grows past it only if that
// count was short, so a wrong count costs memory or copies, never results.
//
// The pass checks the order it merges in, and panics if a or b is not in
// (Key, Ref) order: merging preserves each input's order, so the merged
// sequence is sorted iff both inputs are. The result is therefore sorted
// without a second read, which is what cstree.Build needs of it.
func MergeFiltered(a, b []Pair, live func(Pair) bool, survivors int) []Pair {
	out := make([]Pair, 0, min(survivors, len(a)+len(b)))
	var last Pair // no pair is below the zero pair
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var next Pair
		if a[i].Less(b[j]) {
			next = a[i]
			i++
		} else {
			next = b[j]
			j++
		}
		if next.Less(last) {
			panic(unsorted)
		}
		last = next
		if live(next) {
			out = append(out, next)
		}
	}
	for ; i < len(a); i++ {
		if a[i].Less(last) {
			panic(unsorted)
		}
		last = a[i]
		if live(a[i]) {
			out = append(out, a[i])
		}
	}
	for ; j < len(b); j++ {
		if b[j].Less(last) {
			panic(unsorted)
		}
		last = b[j]
		if live(b[j]) {
			out = append(out, b[j])
		}
	}
	return out
}

// unsorted is MergeFiltered's panic on an input out of (Key, Ref) order.
const unsorted = "kv: MergeFiltered input not sorted"

// Filter returns the elements of sorted ps that satisfy live, preserving
// order, in a new slice.
func Filter(ps []Pair, live func(Pair) bool) []Pair {
	out := make([]Pair, 0, len(ps))
	for _, p := range ps {
		if live(p) {
			out = append(out, p)
		}
	}
	return out
}

// PairBytes is the in-memory size of one element, used by the memory
// footprint experiment (Figure 11a).
const PairBytes = 8
