// Package cstree implements the immutable B+-Tree of Section 3.1 and
// Appendix A — a CSS-Tree-style index whose nodes are arranged into a single
// array in breadth-first order, with child positions derived arithmetically
// rather than through stored references (Appendix A.3, Algorithm 3).
//
// Because inner nodes carry no child pointers, fan-out is higher than in the
// classic B+-Tree for the same node size, the tree is shallower, and lookups
// are faster (the paper's motivation for using it as the search-efficient
// component TS of IM-/PIM-Tree). The structure is immutable: it is built once
// from a sorted run and never modified, which is why concurrent traversal
// needs no locks (Section 3.3.3).
//
// Inner-node routing keys are subtree maxima: the key stored for a child is
// the largest key in that child's subtree, pushed up during construction
// exactly as in Algorithm 3. Each inner node holds sib = fanout-1 keys and
// routes to fanout children (the last child needs no key).
package cstree

import (
	"fmt"
	"math"

	"pimtree/internal/kv"
	"pimtree/internal/metrics"
)

// DefaultFanout is fib in the paper's notation; 32 matches the configuration
// discussed in Section 5 (Figure 13a).
const DefaultFanout = 32

// DefaultLeafSize is lib, the number of elements per leaf node.
const DefaultLeafSize = 32

const maxKey = math.MaxUint32

// Tree is an immutable B+-Tree built from a sorted run of elements.
type Tree struct {
	leaves []kv.Pair // all elements, sorted, contiguous
	inners []uint32  // BFS-ordered routing keys, sib per node

	fanout   int   // fib: children per inner node
	sib      int   // keys per inner node = fanout-1
	leafSize int   // lib: elements per leaf node
	offsets  []int // offsets[d]: first key slot of depth d within inners
	counts   []int // counts[d]: number of inner nodes at depth d
	lastLeaf int   // ordinal of the rightmost leaf node
}

// Config controls node geometry. Zero values select the defaults.
type Config struct {
	Fanout   int // fib, children per inner node (min 2)
	LeafSize int // lib, elements per leaf node (min 2)
}

func (c Config) withDefaults() Config {
	if c.Fanout == 0 {
		c.Fanout = DefaultFanout
	}
	if c.LeafSize == 0 {
		c.LeafSize = DefaultLeafSize
	}
	if c.Fanout < 2 {
		panic(fmt.Sprintf("cstree: fanout %d too small (minimum 2)", c.Fanout))
	}
	if c.LeafSize < 2 {
		panic(fmt.Sprintf("cstree: leaf size %d too small (minimum 2)", c.LeafSize))
	}
	return c
}

// Build constructs an immutable tree over sorted. The slice is retained (not
// copied); callers hand over ownership, which is how the merge step avoids a
// second copy of the merged run. Build panics if sorted is out of order.
func Build(sorted []kv.Pair, cfg Config) *Tree {
	cfg = cfg.withDefaults()
	if !kv.IsSorted(sorted) {
		panic("cstree: Build input not sorted")
	}
	t := &Tree{
		leaves:   sorted,
		fanout:   cfg.Fanout,
		sib:      cfg.Fanout - 1,
		leafSize: cfg.LeafSize,
	}
	t.buildInners()
	return t
}

// buildInners implements Algorithm 3: compute per-level node counts and
// offsets, then push each leaf node's maximum up through the levels.
func (t *Tree) buildInners() {
	leafNodes := (len(t.leaves) + t.leafSize - 1) / t.leafSize
	t.lastLeaf = leafNodes - 1
	if leafNodes <= 1 {
		// A single (possibly empty) leaf node needs no directory.
		t.offsets = nil
		t.counts = nil
		t.inners = nil
		return
	}
	// Level node counts from the bottom up until a single root remains.
	var counts []int
	n := (leafNodes + t.fanout - 1) / t.fanout
	for {
		counts = append([]int{n}, counts...)
		if n == 1 {
			break
		}
		n = (n + t.fanout - 1) / t.fanout
	}
	t.counts = counts
	t.offsets = make([]int, len(counts))
	total := 0
	for d, c := range counts {
		t.offsets[d] = total
		total += c * t.sib
	}
	t.inners = make([]uint32, total)
	for i := range t.inners {
		t.inners[i] = maxKey // unwritten slots route left
	}

	depth := len(counts)
	nodeSize := make([]int, depth)
	currentSlot := make([]int, depth)
	for leaf := 0; leaf < leafNodes; leaf++ {
		end := (leaf + 1) * t.leafSize
		if end > len(t.leaves) {
			end = len(t.leaves)
		}
		maxOfLeaf := t.leaves[end-1].Key
		// Push the leaf maximum up, filling the deepest level with space.
		for k := depth - 1; k >= 0; k-- {
			if nodeSize[k] != t.sib {
				t.inners[t.offsets[k]+currentSlot[k]] = maxOfLeaf
				nodeSize[k]++
				currentSlot[k]++
				break
			}
			// Node full: a new node begins at this level; the key that
			// would have been its last child's maximum moves up instead.
			nodeSize[k] = 0
			// k == 0 with a full root means this is the rightmost path;
			// the maximum needs no slot (discarded, see Appendix A.3).
		}
	}
}

// Len returns the number of stored elements (including any that the owner
// considers expired; the tree itself has no notion of liveness).
func (t *Tree) Len() int { return len(t.leaves) }

// LeafSize returns lib.
func (t *Tree) LeafSize() int { return t.leafSize }

// InnerDepth returns the number of inner levels (0 when the tree fits in one
// leaf node). This bounds the feasible insertion depth DI of PIM-Tree.
func (t *Tree) InnerDepth() int { return len(t.counts) }

// NodesAtDepth returns the number of inner nodes at depth d (root = 0).
// It returns 0 for depths outside the directory.
func (t *Tree) NodesAtDepth(d int) int {
	if d < 0 || d >= len(t.counts) {
		return 0
	}
	return t.counts[d]
}

// Leaves exposes the underlying sorted run. Callers must not modify it; the
// merge step reads it to combine TS with TI.
func (t *Tree) Leaves() []kv.Pair { return t.leaves }

// routeNode scans the sib keys of node p at depth d and returns the child
// ordinal for key (the first child whose subtree maximum is >= key, or the
// last child).
func (t *Tree) routeNode(d, p int, key uint32) int {
	base := t.offsets[d] + p*t.sib
	metrics.Load(t.sib * 4)
	for k := 0; k < t.sib; k++ {
		if key <= t.inners[base+k] {
			return k
		}
	}
	return t.sib
}

// walk continues key's descent of the directory from node p at depth from
// down to depth to (len(counts) is the leaf-node level) and returns the node
// ordinal reached there. It needs 0 <= from and to <= len(counts).
func (t *Tree) walk(key uint32, p, from, to int) int {
	for i := from; i < to; i++ {
		p = p*t.fanout + t.routeNode(i, p, key)
		// Clamp to existing nodes at depth i+1 (ragged right edge: the
		// rightmost node may have fewer children than fanout).
		max := t.lastLeaf
		if i+1 < len(t.counts) {
			max = t.counts[i+1] - 1
		}
		if p > max {
			p = max
		}
	}
	return p
}

// clampDepth bounds a caller-supplied directory depth to [0, len(counts)].
func (t *Tree) clampDepth(d int) int {
	if d < 0 {
		return 0
	}
	if d > len(t.counts) {
		return len(t.counts)
	}
	return d
}

// RouteToDepth descends the directory to depth d (exclusive of leaves) and
// returns the node ordinal at that depth that covers key. Depth 0 always
// returns 0. This is the first half of Algorithm 1: PIM-Tree uses it to find
// the subindex Bi responsible for an inserted key.
func (t *Tree) RouteToDepth(key uint32, d int) int {
	return t.walk(key, 0, 0, t.clampDepth(d))
}

// LowerBound returns the index into Leaves() of the first element with
// Key >= key, descending the directory and then scanning forward (Algorithm 2
// lines 1–12).
func (t *Tree) LowerBound(key uint32) int {
	i, _ := t.LowerBoundVia(key, 0)
	return i
}

// LowerBoundVia is LowerBound that also reports the node ordinal the descent
// passed at depth d, i.e. RouteToDepth(key, d), so a caller that needs both
// (PIM-Tree: the TS range start and the TI subindex of the same key) walks
// the directory once.
func (t *Tree) LowerBoundVia(key uint32, d int) (i, ord int) {
	d = t.clampDepth(d)
	ord = t.walk(key, 0, 0, d)
	i = t.walk(key, ord, d, len(t.counts)) * t.leafSize
	for i < len(t.leaves) && t.leaves[i].Key < key {
		metrics.Load(kv.PairBytes)
		i++
	}
	return i, ord
}

// lockstep is how many keys LowerBounds walks through the directory together:
// their loads at one level are independent, so up to this many misses are in
// flight at once instead of one.
const lockstep = 16

// LowerBounds is LowerBoundVia for a batch of keys that also serves a
// batch's RouteToDepth calls: for every j < len(pos) it sets pos[j], ords[j]
// = LowerBoundVia(keys[j], d), and for every later j only ords[j] =
// RouteToDepth(keys[j], d), whose descent stops at depth d. ords must be at
// least as long as keys. The keys go down in groups of lockstep, one level
// at a time, and every inner node and full leaf is bisected with a
// branch-free step, so each step issues the group's loads back to back. A
// single key gains nothing from that: for it LowerBoundVia's forward scan is
// the faster search, and stays the single-key path.
func (t *Tree) LowerBounds(keys []uint32, d int, pos, ords []int) {
	d = t.clampDepth(d)
	var node [lockstep]int // each key's node at the level being walked
	for g := 0; g < len(keys); g += lockstep {
		ks := keys[g:min(g+lockstep, len(keys))]
		os := ords[g : g+len(ks)]
		ps := node[:len(ks)]
		clear(ps)
		for lvl := 0; ; lvl++ {
			if lvl == d {
				copy(os, ps)
				// Past len(pos), the keys are done.
				n := max(0, min(len(ks), len(pos)-g))
				ks, ps = ks[:n], ps[:n]
			}
			if lvl == len(t.counts) || len(ks) == 0 {
				break
			}
			t.routeLevel(lvl, ks, ps)
		}
		if len(ks) > 0 {
			t.leafBounds(ks, ps)
			copy(pos[g:], ps)
		}
	}
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// routeLevel moves every key of a group from its node at depth lvl to the
// child routeNode would pick, clamped as in walk.
func (t *Tree) routeLevel(lvl int, ks []uint32, ps []int) {
	var base [lockstep]int
	off, inners := t.offsets[lvl], t.inners
	for j := range ks {
		base[j] = off + ps[j]*t.sib
	}
	// Bisect for the first slot >= key: the answer stays within
	// [base, base+n] while n shrinks to 1.
	n := t.sib
	for n > 1 {
		half := n / 2
		for j, k := range ks {
			base[j] += b2i(inners[base[j]+half] < k) * half
		}
		n -= half
	}
	last := t.lastLeaf // the last node at depth lvl+1
	if lvl+1 < len(t.counts) {
		last = t.counts[lvl+1] - 1
	}
	for j, k := range ks {
		slot := base[j] - off - ps[j]*t.sib + b2i(inners[base[j]] < k)
		ps[j] = min(ps[j]*t.fanout+slot, last)
	}
	metrics.Load(len(ks) * t.sib * 4)
}

// leafBounds turns every key's leaf node ordinal into its lower bound. Full
// leaves are bisected in lockstep; a short last leaf, and a key greater than
// its leaf's maximum, finish with LowerBoundVia's forward scan.
func (t *Tree) leafBounds(ks []uint32, ps []int) {
	leaves, ls := t.leaves, t.leafSize
	full := len(leaves) / ls // leaf nodes holding leafSize elements
	var base [lockstep]int
	if full > 0 {
		for j := range ks {
			// A key bound for the short last leaf bisects leaf 0 instead,
			// keeping the loop free of branches; the scan below redoes it.
			base[j] = ps[j] * ls * b2i(ps[j] < full)
		}
		for n := ls; n > 1; {
			half := n / 2
			for j, k := range ks {
				base[j] += b2i(leaves[base[j]+half].Key < k) * half
			}
			n -= half
		}
		for j, k := range ks {
			base[j] += b2i(leaves[base[j]].Key < k)
		}
	}
	for j, k := range ks {
		i := base[j]
		if ps[j] >= full {
			i = ps[j] * ls
		}
		for i < len(leaves) && leaves[i].Key < k {
			i++
		}
		ps[j] = i
	}
	metrics.Load(len(ks) * kv.PairBytes)
}

// QueryPairs emits the elements with lo <= Key <= hi: the leaf array is one
// contiguous sorted slice, so the whole in-range run is emitted as a single
// []kv.Pair. The slice aliases tree-owned storage; emit must not retain it.
// It returns true when emit refused the run, false when the range was
// exhausted (see btree.QueryPairs for why composite indexes need the
// distinction).
func (t *Tree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	_, stopped = t.QueryPairsVia(lo, hi, 0, emit)
	return stopped
}

// QueryPairsVia is QueryPairs that also reports RouteToDepth(lo, d) from the
// same descent (see LowerBoundVia). The end of the run is found by scanning
// forward from the lower bound: the caller visits those elements anyway, so
// the scan reads nothing a binary search over the leaf suffix would not also
// pull in, minus its cache-missing probes.
func (t *Tree) QueryPairsVia(lo, hi uint32, d int, emit func([]kv.Pair) bool) (ord int, stopped bool) {
	i, ord := t.LowerBoundVia(lo, d)
	return ord, t.QueryPairsFrom(i, hi, emit)
}

// QueryPairsFrom is QueryPairs with the descent already done: i is lo's
// lower bound (from LowerBoundVia or LowerBounds).
func (t *Tree) QueryPairsFrom(i int, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	j := i
	for j < len(t.leaves) && t.leaves[j].Key <= hi {
		j++
	}
	if i == j {
		return false
	}
	metrics.Load((j - i) * kv.PairBytes)
	return !emit(t.leaves[i:j])
}

// SubtreeBounds returns, for each node at depth d, the largest key routed to
// that node's subtree (MaxUint32 for the rightmost). PIM-Tree uses the bounds
// to stop cross-subindex scans early (Algorithm 2 lines 31–32).
func (t *Tree) SubtreeBounds(d int) []uint32 {
	n := t.NodesAtDepth(d)
	if n == 0 {
		return []uint32{maxKey}
	}
	bounds := make([]uint32, n)
	// Each node at depth d covers fanout^(depth-d) leaf nodes.
	span := 1
	for i := d; i < len(t.counts); i++ {
		span *= t.fanout
	}
	for p := 0; p < n; p++ {
		lastLeaf := (p+1)*span - 1
		if lastLeaf >= t.lastLeaf || p == n-1 {
			bounds[p] = maxKey
			continue
		}
		end := (lastLeaf + 1) * t.leafSize
		if end > len(t.leaves) {
			end = len(t.leaves)
		}
		bounds[p] = t.leaves[end-1].Key
	}
	return bounds
}

// MemoryStats describes the footprint of the immutable tree (Figure 11a).
type MemoryStats struct {
	LeafBytes  int
	InnerBytes int
}

// Memory reports the heap footprint: element storage plus the key directory.
func (t *Tree) Memory() MemoryStats {
	return MemoryStats{
		LeafBytes:  cap(t.leaves) * kv.PairBytes,
		InnerBytes: cap(t.inners) * 4,
	}
}

// CheckInvariants validates that the directory routes every stored element to
// a position at or before its true location (the lower-bound contract). Used
// by tests; linear in the number of elements.
func (t *Tree) CheckInvariants() error {
	if !kv.IsSorted(t.leaves) {
		return fmt.Errorf("cstree: leaves not sorted")
	}
	for i, p := range t.leaves {
		lb := t.LowerBound(p.Key)
		if lb > i {
			return fmt.Errorf("cstree: LowerBound(%d) = %d past element index %d", p.Key, lb, i)
		}
		if lb < len(t.leaves) && t.leaves[lb].Key < p.Key {
			return fmt.Errorf("cstree: LowerBound(%d) landed on smaller key %d", p.Key, t.leaves[lb].Key)
		}
	}
	return nil
}
