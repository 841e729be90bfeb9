// Package btree implements the classic in-memory B+-Tree of Section 2.2.1:
// inner nodes store explicit child references, leaves are linked for range
// scans, and individual inserts and deletes are supported. It plays the role
// of the STX B+-Tree used by the paper — the single-index IBWJ baseline and
// the mutable component TI of the IM-/PIM-Tree.
//
// Elements are kv.Pair values ordered by (Key, Ref), so duplicate join keys
// are fully supported and every element has a unique position, which makes
// point deletes of expired tuples exact.
//
// The tree is not safe for concurrent use; concurrency in the reproduction
// comes from PIM-Tree's partition locks (package core) or from per-core
// private trees (round-robin joins), exactly as in the paper.
package btree

import (
	"fmt"

	"pimtree/internal/kv"
	"pimtree/internal/metrics"
)

// DefaultOrder is the default maximum number of elements per node. With
// 8-byte elements plus an 8-byte child pointer per branch this mirrors the
// cache-line-multiple node sizes used by STX-style trees.
const DefaultOrder = 32

// Tree is a B+-Tree of kv.Pair elements.
type Tree struct {
	root   *node
	first  *node // head of the leaf linked list
	order  int   // max elements per leaf / max keys per inner node
	length int

	// freeLeaves recycles leaf nodes between merges and splits. A window
	// workload that deletes and reinserts around a leaf-occupancy boundary
	// ping-pongs merge→split at that boundary; reusing the merged-away node
	// (and its pairs capacity) keeps that steady state allocation-free.
	freeLeaves []*node
}

type node struct {
	leaf bool

	// Inner node state: seps[i] is the smallest element of children[i+1];
	// len(children) == len(seps)+1.
	seps     []kv.Pair
	children []*node

	// Leaf state: sorted elements plus the next-leaf link.
	pairs []kv.Pair
	next  *node
}

// New returns an empty tree with DefaultOrder.
func New() *Tree { return NewOrder(DefaultOrder) }

// NewOrder returns an empty tree whose nodes hold at most order elements.
// Order must be at least 4 so that splits and merges are well defined.
func NewOrder(order int) *Tree {
	if order < 4 {
		panic(fmt.Sprintf("btree: order %d too small (minimum 4)", order))
	}
	leaf := &node{leaf: true}
	return &Tree{root: leaf, first: leaf, order: order}
}

// Len returns the number of stored elements.
func (t *Tree) Len() int { return t.length }

// Height returns the number of levels (a lone leaf has height 1). This is Hb
// in the paper's cost model.
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

func (t *Tree) minLeaf() int  { return t.order / 2 }
func (t *Tree) minInner() int { return t.order / 2 } // min separators

// Insert adds p to the tree. Duplicates (same Key and Ref) are stored once;
// inserting an existing element is a no-op and returns false.
func (t *Tree) Insert(p kv.Pair) bool {
	sep, right, added := t.insert(t.root, p)
	if right != nil {
		newRoot := &node{
			seps:     []kv.Pair{sep},
			children: []*node{t.root, right},
		}
		t.root = newRoot
	}
	if added {
		t.length++
	}
	return added
}

// insert descends into n; on child split it returns the separator and the new
// right sibling to be linked by the caller.
func (t *Tree) insert(n *node, p kv.Pair) (sep kv.Pair, right *node, added bool) {
	if n.leaf {
		i := lowerBoundPair(n.pairs, p)
		if i < len(n.pairs) && n.pairs[i] == p {
			return kv.Pair{}, nil, false
		}
		n.pairs = append(n.pairs, kv.Pair{})
		copy(n.pairs[i+1:], n.pairs[i:])
		n.pairs[i] = p
		metrics.Store(kv.PairBytes)
		if len(n.pairs) > t.order {
			sep := t.splitLeaf(n)
			return sep, n.next, true
		}
		return kv.Pair{}, nil, true
	}

	ci := childIndex(n.seps, p)
	metrics.Load(len(n.seps) * kv.PairBytes)
	sep, right, added = t.insert(n.children[ci], p)
	if right != nil {
		n.seps = append(n.seps, kv.Pair{})
		copy(n.seps[ci+1:], n.seps[ci:])
		n.seps[ci] = sep
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
		if len(n.seps) > t.order {
			return t.splitInner(n)
		}
	}
	return sep, nil, added
}

// splitLeaf splits an overfull leaf in half, links the new right sibling into
// the leaf list, and returns the separator (smallest element of the right
// half). The right half is copied out, so the left leaf keeps its full pairs
// capacity for future inserts (capping it would force a reallocation on the
// next append).
func (t *Tree) splitLeaf(n *node) kv.Pair {
	mid := len(n.pairs) / 2
	right := t.newLeaf()
	right.pairs = append(right.pairs[:0], n.pairs[mid:]...)
	n.pairs = n.pairs[:mid]
	right.next = n.next
	n.next = right
	return right.pairs[0]
}

// newLeaf returns a leaf node, reusing a merged-away one when available.
func (t *Tree) newLeaf() *node {
	if k := len(t.freeLeaves); k > 0 {
		nd := t.freeLeaves[k-1]
		t.freeLeaves[k-1] = nil
		t.freeLeaves = t.freeLeaves[:k-1]
		return nd
	}
	return &node{leaf: true}
}

// splitInner splits an overfull inner node, promoting the middle separator.
func (t *Tree) splitInner(n *node) (kv.Pair, *node, bool) {
	mid := len(n.seps) / 2
	promoted := n.seps[mid]
	right := &node{}
	right.seps = append(right.seps, n.seps[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.seps = n.seps[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return promoted, right, true
}

// Delete removes the exact element p. It returns false when p is absent.
func (t *Tree) Delete(p kv.Pair) bool {
	removed := t.delete(t.root, p)
	if removed {
		t.length--
	}
	// Collapse a root inner node with a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return removed
}

func (t *Tree) delete(n *node, p kv.Pair) bool {
	if n.leaf {
		i := lowerBoundPair(n.pairs, p)
		if i >= len(n.pairs) || n.pairs[i] != p {
			return false
		}
		copy(n.pairs[i:], n.pairs[i+1:])
		n.pairs = n.pairs[:len(n.pairs)-1]
		metrics.Store(kv.PairBytes)
		return true
	}
	ci := childIndex(n.seps, p)
	metrics.Load(len(n.seps) * kv.PairBytes)
	if !t.delete(n.children[ci], p) {
		return false
	}
	t.rebalance(n, ci)
	return true
}

// rebalance restores the occupancy invariant of n.children[ci] after a
// delete, borrowing from or merging with an adjacent sibling.
func (t *Tree) rebalance(n *node, ci int) {
	child := n.children[ci]
	if child.leaf {
		if len(child.pairs) >= t.minLeaf() {
			return
		}
		// Borrow from left sibling. The prepend is done in place — building
		// a fresh slice here would put an allocation on every borrow, which
		// sliding-window deletes hit constantly.
		if ci > 0 && len(n.children[ci-1].pairs) > t.minLeaf() {
			left := n.children[ci-1]
			last := left.pairs[len(left.pairs)-1]
			left.pairs = left.pairs[:len(left.pairs)-1]
			child.pairs = append(child.pairs, kv.Pair{})
			copy(child.pairs[1:], child.pairs)
			child.pairs[0] = last
			n.seps[ci-1] = child.pairs[0]
			return
		}
		// Borrow from right sibling. Shift down in place: re-slicing the
		// front off would strand capacity and force the sibling's appends to
		// reallocate.
		if ci < len(n.children)-1 && len(n.children[ci+1].pairs) > t.minLeaf() {
			rightSib := n.children[ci+1]
			first := rightSib.pairs[0]
			copy(rightSib.pairs, rightSib.pairs[1:])
			rightSib.pairs = rightSib.pairs[:len(rightSib.pairs)-1]
			child.pairs = append(child.pairs, first)
			n.seps[ci] = rightSib.pairs[0]
			return
		}
		// Merge with a sibling (prefer left).
		if ci > 0 {
			t.mergeLeaves(n, ci-1)
		} else if ci < len(n.children)-1 {
			t.mergeLeaves(n, ci)
		}
		return
	}

	if len(child.seps) >= t.minInner() {
		return
	}
	// Borrow from left sibling through the parent separator (in-place
	// prepends, same rationale as the leaf borrows).
	if ci > 0 && len(n.children[ci-1].seps) > t.minInner() {
		left := n.children[ci-1]
		child.seps = append(child.seps, kv.Pair{})
		copy(child.seps[1:], child.seps)
		child.seps[0] = n.seps[ci-1]
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[len(left.children)-1]
		n.seps[ci-1] = left.seps[len(left.seps)-1]
		left.seps = left.seps[:len(left.seps)-1]
		left.children = left.children[:len(left.children)-1]
		return
	}
	// Borrow from right sibling (in-place front shifts).
	if ci < len(n.children)-1 && len(n.children[ci+1].seps) > t.minInner() {
		rightSib := n.children[ci+1]
		child.seps = append(child.seps, n.seps[ci])
		child.children = append(child.children, rightSib.children[0])
		n.seps[ci] = rightSib.seps[0]
		copy(rightSib.seps, rightSib.seps[1:])
		rightSib.seps = rightSib.seps[:len(rightSib.seps)-1]
		copy(rightSib.children, rightSib.children[1:])
		rightSib.children[len(rightSib.children)-1] = nil
		rightSib.children = rightSib.children[:len(rightSib.children)-1]
		return
	}
	// Merge with a sibling.
	if ci > 0 {
		t.mergeInners(n, ci-1)
	} else if ci < len(n.children)-1 {
		t.mergeInners(n, ci)
	}
}

// mergeLeaves merges n.children[i+1] into n.children[i] and recycles the
// emptied right node through the tree's leaf free-list (bounded — the list
// only needs to absorb the merge/split ping-pong, not a mass shrink).
func (t *Tree) mergeLeaves(n *node, i int) {
	left, right := n.children[i], n.children[i+1]
	left.pairs = append(left.pairs, right.pairs...)
	left.next = right.next
	n.seps = append(n.seps[:i], n.seps[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
	if len(t.freeLeaves) < 4 {
		right.pairs = right.pairs[:0]
		right.next = nil
		t.freeLeaves = append(t.freeLeaves, right)
	}
}

// mergeInners merges inner node n.children[i+1] into n.children[i], pulling
// the parent separator down.
func (t *Tree) mergeInners(n *node, i int) {
	left, right := n.children[i], n.children[i+1]
	left.seps = append(left.seps, n.seps[i])
	left.seps = append(left.seps, right.seps...)
	left.children = append(left.children, right.children...)
	n.seps = append(n.seps[:i], n.seps[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// QueryPairs emits the elements with lo <= Key <= hi in (Key, Ref) order,
// one contiguous []kv.Pair run per leaf, so callers iterate cache-resident
// memory with no per-element indirect call. The runs alias tree-owned
// storage and are only valid until the next mutation; emit must not retain
// them. It returns true when emit refused a run and false when the range was
// exhausted — the distinction lets composite indexes chain component queries
// without a wrapping closure (range exhaustion in one component must not
// stop the next, but a refusal must).
func (t *Tree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	n := t.descend(kv.Pair{Key: lo})
	i := kv.LowerBound(n.pairs, lo)
	for {
		j := len(n.pairs)
		if j > 0 && n.pairs[j-1].Key > hi {
			j = i + kv.UpperBound(n.pairs[i:], hi)
			if i == j {
				return false
			}
			metrics.Load((j - i) * kv.PairBytes)
			return !emit(n.pairs[i:j])
		}
		if i < j {
			metrics.Load((j - i) * kv.PairBytes)
			if !emit(n.pairs[i:j]) {
				return true
			}
		}
		if n.next == nil {
			return false
		}
		n = n.next
		i = 0
	}
}

// descend walks to the leaf that would contain p.
func (t *Tree) descend(p kv.Pair) *node {
	n := t.root
	for !n.leaf {
		metrics.Load(len(n.seps) * kv.PairBytes)
		n = n.children[childIndex(n.seps, p)]
	}
	return n
}

// Contains reports whether the exact element p is stored.
func (t *Tree) Contains(p kv.Pair) bool {
	n := t.descend(p)
	i := lowerBoundPair(n.pairs, p)
	return i < len(n.pairs) && n.pairs[i] == p
}

// Min returns the smallest element, or ok=false when empty.
func (t *Tree) Min() (kv.Pair, bool) {
	for n := t.first; n != nil; n = n.next {
		if len(n.pairs) > 0 {
			return n.pairs[0], true
		}
	}
	return kv.Pair{}, false
}

// Max returns the largest element, or ok=false when empty.
func (t *Tree) Max() (kv.Pair, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.pairs) == 0 {
		return kv.Pair{}, false
	}
	return n.pairs[len(n.pairs)-1], true
}

// SortedSlice returns all elements in order in a newly allocated slice, one
// leaf run at a time. The IB-chain uses it to turn an archived subindex into
// the sorted run of an immutable tree.
func (t *Tree) SortedSlice() []kv.Pair {
	out := make([]kv.Pair, 0, t.length)
	for n := t.first; n != nil; n = n.next {
		out = append(out, n.pairs...)
	}
	return out
}

// Reset empties the tree in O(1), dropping all nodes.
func (t *Tree) Reset() {
	leaf := &node{leaf: true}
	t.root = leaf
	t.first = leaf
	t.length = 0
	t.freeLeaves = nil
}

// MemoryStats describes the heap footprint of the tree, for Figure 11a.
type MemoryStats struct {
	LeafBytes  int
	InnerBytes int
	Nodes      int
}

// Memory walks the tree and reports its footprint. Leaf bytes count element
// storage capacity; inner bytes count separator and child-pointer capacity.
func (t *Tree) Memory() MemoryStats {
	var s MemoryStats
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		if n.leaf {
			s.LeafBytes += cap(n.pairs) * kv.PairBytes
			return
		}
		s.InnerBytes += cap(n.seps)*kv.PairBytes + cap(n.children)*8
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return s
}

// CheckInvariants validates structural invariants and returns a descriptive
// error when one is violated. Tests and failure-injection harnesses use it;
// it is not called on hot paths.
func (t *Tree) CheckInvariants() error {
	count := 0
	var prev *kv.Pair
	err := t.check(t.root, nil, nil, true, &count, &prev)
	if err != nil {
		return err
	}
	if count != t.length {
		return fmt.Errorf("btree: length %d but %d elements reachable", t.length, count)
	}
	return nil
}

func (t *Tree) check(n *node, lo, hi *kv.Pair, isRoot bool, count *int, prev **kv.Pair) error {
	if n.leaf {
		if !isRoot && len(n.pairs) < t.minLeaf() {
			return fmt.Errorf("btree: leaf underflow (%d < %d)", len(n.pairs), t.minLeaf())
		}
		if len(n.pairs) > t.order {
			return fmt.Errorf("btree: leaf overflow (%d > %d)", len(n.pairs), t.order)
		}
		for i := range n.pairs {
			p := n.pairs[i]
			if *prev != nil && !(*prev).Less(p) {
				return fmt.Errorf("btree: leaf order violation at %v", p)
			}
			if lo != nil && p.Less(*lo) {
				return fmt.Errorf("btree: element %v below separator %v", p, *lo)
			}
			if hi != nil && !p.Less(*hi) {
				return fmt.Errorf("btree: element %v not below separator %v", p, *hi)
			}
			*prev = &n.pairs[i]
			*count++
		}
		return nil
	}
	if len(n.children) != len(n.seps)+1 {
		return fmt.Errorf("btree: inner with %d children, %d separators", len(n.children), len(n.seps))
	}
	if !isRoot && len(n.seps) < t.minInner() {
		return fmt.Errorf("btree: inner underflow (%d < %d)", len(n.seps), t.minInner())
	}
	for i, c := range n.children {
		var clo, chi *kv.Pair
		if i > 0 {
			clo = &n.seps[i-1]
		} else {
			clo = lo
		}
		if i < len(n.seps) {
			chi = &n.seps[i]
		} else {
			chi = hi
		}
		if err := t.check(c, clo, chi, false, count, prev); err != nil {
			return err
		}
	}
	return nil
}

// lowerBoundPair returns the first index i with pairs[i] >= p in (Key, Ref)
// order.
func lowerBoundPair(pairs []kv.Pair, p kv.Pair) int {
	lo, hi := 0, len(pairs)
	for lo < hi {
		mid := (lo + hi) / 2
		if pairs[mid].Less(p) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child slot to follow for p given separators seps.
// Elements equal to a separator live in the right child.
func childIndex(seps []kv.Pair, p kv.Pair) int {
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Less(seps[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
