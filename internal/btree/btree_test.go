package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pimtree/internal/kv"
)

func pair(k, r uint32) kv.Pair { return kv.Pair{Key: k, Ref: r} }

// query collects QueryPairs(lo, hi) and fails t on an empty run or a range
// reported as refused.
func query(t testing.TB, tr *Tree, lo, hi uint32) []kv.Pair {
	t.Helper()
	var out []kv.Pair
	stopped := tr.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		if len(run) == 0 {
			t.Fatalf("QueryPairs(%d,%d) emitted an empty run", lo, hi)
		}
		out = append(out, run...)
		return true
	})
	if stopped {
		t.Fatalf("QueryPairs(%d,%d) reported a refusal no run made", lo, hi)
	}
	return out
}

// collect returns every element in order.
func collect(t testing.TB, tr *Tree) []kv.Pair { return query(t, tr, 0, math.MaxUint32) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d, want 1", tr.Height())
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree reported ok")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree reported ok")
	}
	if got := collect(t, tr); len(got) != 0 {
		t.Fatalf("QueryPairs on empty tree emitted %d elements", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndContains(t *testing.T) {
	tr := New()
	for i := uint32(0); i < 1000; i++ {
		if !tr.Insert(pair(i*7%501, i)) {
			t.Fatalf("Insert of fresh element %d reported duplicate", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := uint32(0); i < 1000; i++ {
		if !tr.Contains(pair(i*7%501, i)) {
			t.Fatalf("Contains(%d) = false", i)
		}
	}
	if tr.Contains(pair(9999, 0)) {
		t.Fatal("Contains reported absent element")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicateElementIsNoOp(t *testing.T) {
	tr := New()
	if !tr.Insert(pair(5, 5)) {
		t.Fatal("first insert failed")
	}
	if tr.Insert(pair(5, 5)) {
		t.Fatal("duplicate insert reported added")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestDuplicateKeysDistinctRefs(t *testing.T) {
	tr := New()
	const dups = 500
	for r := uint32(0); r < dups; r++ {
		tr.Insert(pair(42, r))
	}
	if tr.Len() != dups {
		t.Fatalf("Len = %d, want %d", tr.Len(), dups)
	}
	got := query(t, tr, 42, 42)
	if len(got) != dups {
		t.Fatalf("QueryPairs returned %d duplicates, want %d", len(got), dups)
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatal("duplicates not in Ref order")
		}
	}
}

func TestSortedOrderAfterRandomInserts(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	want := make([]kv.Pair, 0, 5000)
	for i := 0; i < 5000; i++ {
		p := pair(rng.Uint32()%10000, uint32(i))
		tr.Insert(p)
		want = append(want, p)
	}
	kv.Sort(want)
	got := collect(t, tr)
	if len(got) != len(want) {
		t.Fatalf("got %d elements, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteExact(t *testing.T) {
	tr := New()
	for i := uint32(0); i < 2000; i++ {
		tr.Insert(pair(i%97, i))
	}
	for i := uint32(0); i < 2000; i += 2 {
		if !tr.Delete(pair(i%97, i)) {
			t.Fatalf("Delete of present element %d failed", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := uint32(0); i < 2000; i++ {
		want := i%2 == 1
		if got := tr.Contains(pair(i%97, i)); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr := New()
	tr.Insert(pair(1, 1))
	if tr.Delete(pair(1, 2)) {
		t.Fatal("Delete of absent element reported removed")
	}
	if tr.Delete(pair(2, 1)) {
		t.Fatal("Delete of absent key reported removed")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestDeleteAllDrainsTree(t *testing.T) {
	tr := NewOrder(8)
	const n = 3000
	rng := rand.New(rand.NewSource(11))
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		tr.Insert(pair(uint32(i), uint32(i)))
	}
	for _, i := range perm {
		if !tr.Delete(pair(uint32(i), uint32(i))) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if i%100 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d after draining, want 1", tr.Height())
	}
}

func TestQueryRange(t *testing.T) {
	tr := New()
	for i := uint32(0); i < 1000; i++ {
		tr.Insert(pair(i, i))
	}
	tests := []struct {
		lo, hi uint32
		want   int
	}{
		{0, 999, 1000},
		{0, 0, 1},
		{999, 999, 1},
		{100, 199, 100},
		{500, 499, 0},
		{1000, 2000, 0},
	}
	for _, tc := range tests {
		got := query(t, tr, tc.lo, tc.hi)
		for _, p := range got {
			if p.Key < tc.lo || p.Key > tc.hi {
				t.Fatalf("QueryPairs(%d,%d) emitted out-of-range key %d", tc.lo, tc.hi, p.Key)
			}
		}
		if len(got) != tc.want {
			t.Fatalf("QueryPairs(%d,%d) emitted %d, want %d", tc.lo, tc.hi, len(got), tc.want)
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	tr := NewOrder(4) // leaves of 2..4 elements: a range spans many runs
	for i := uint32(0); i < 100; i++ {
		tr.Insert(pair(i, i))
	}
	n, calls, refused := 0, 0, false
	stopped := tr.QueryPairs(0, 99, func(run []kv.Pair) bool {
		if refused {
			t.Fatal("emit called after it refused a run")
		}
		calls++
		n += len(run)
		refused = n >= 10
		return !refused
	})
	if !stopped {
		t.Fatal("QueryPairs did not report the refusal")
	}
	if n < 10 || n > 13 || calls < 3 {
		t.Fatalf("early stop emitted %d elements in %d runs, want 10..13 in at least 3", n, calls)
	}
}

// TestQueryPairsReportsRefusal tells a refusal from an exhausted range, for
// a refused run in the middle of the range and for the range's final run,
// which ends inside a leaf.
func TestQueryPairsReportsRefusal(t *testing.T) {
	tr := New() // sequential inserts leave leaves of 16 elements
	for i := uint32(0); i < 100; i++ {
		tr.Insert(pair(i, 0))
	}
	refuse := func([]kv.Pair) bool { return false }
	accept := func([]kv.Pair) bool { return true }
	for _, tc := range []struct {
		lo, hi uint32
		emit   func([]kv.Pair) bool
		want   bool
	}{
		{2, 5, refuse, true},    // one run, ending inside its leaf
		{50, 99, refuse, true},  // first of several runs
		{0, 0, refuse, true},    // a one-element final run
		{50, 59, accept, false}, // range ends inside a leaf
		{50, 200, accept, false},
		{200, 300, refuse, false}, // nothing in range: no run to refuse
	} {
		if got := tr.QueryPairs(tc.lo, tc.hi, tc.emit); got != tc.want {
			t.Errorf("QueryPairs(%d,%d) stopped = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	last := 0
	if !tr.QueryPairs(50, 99, func(run []kv.Pair) bool {
		last = int(run[len(run)-1].Key)
		return last < 97
	}) || last < 97 {
		t.Fatalf("refusing the run holding key 97 gave last key %d or no stop", last)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(3))
	lo, hi := uint32(1<<31), uint32(0)
	for i := 0; i < 1000; i++ {
		k := rng.Uint32() % 100000
		tr.Insert(pair(k, uint32(i)))
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	if mn, ok := tr.Min(); !ok || mn.Key != lo {
		t.Fatalf("Min = %v, want key %d", mn, lo)
	}
	if mx, ok := tr.Max(); !ok || mx.Key != hi {
		t.Fatalf("Max = %v, want key %d", mx, hi)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := NewOrder(8)
	for i := uint32(0); i < 10000; i++ {
		tr.Insert(pair(i, 0))
	}
	h := tr.Height()
	if h < 4 || h > 8 {
		t.Fatalf("Height = %d for 10000 elements at order 8, want 4..8", h)
	}
}

func TestSortedSlice(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		tr.Insert(pair(rng.Uint32()%500, uint32(i)))
	}
	s := tr.SortedSlice()
	if len(s) != tr.Len() {
		t.Fatalf("SortedSlice len %d, want %d", len(s), tr.Len())
	}
	if !kv.IsSorted(s) {
		t.Fatal("SortedSlice not sorted")
	}
}

func TestMemoryStats(t *testing.T) {
	tr := New()
	for i := uint32(0); i < 10000; i++ {
		tr.Insert(pair(i, i))
	}
	m := tr.Memory()
	if m.LeafBytes < 10000*kv.PairBytes {
		t.Fatalf("LeafBytes %d below element payload", m.LeafBytes)
	}
	if m.InnerBytes <= 0 {
		t.Fatal("InnerBytes should be positive for a multi-level tree")
	}
	if m.Nodes <= 1 {
		t.Fatal("expected more than one node")
	}
}

func TestSmallOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewOrder(2) did not panic")
		}
	}()
	NewOrder(2)
}

// TestAgainstReferenceModel drives the tree and a sorted-slice reference with
// an identical random operation stream and requires identical behaviour.
func TestAgainstReferenceModel(t *testing.T) {
	for _, order := range []int{4, 8, 32, 128} {
		tr := NewOrder(order)
		ref := map[kv.Pair]bool{}
		rng := rand.New(rand.NewSource(int64(order)))
		for op := 0; op < 20000; op++ {
			p := pair(rng.Uint32()%300, rng.Uint32()%50)
			switch rng.Intn(3) {
			case 0, 1: // insert twice as often as delete
				added := tr.Insert(p)
				if added == ref[p] {
					t.Fatalf("order %d: Insert(%v) added=%v but ref present=%v", order, p, added, ref[p])
				}
				ref[p] = true
			case 2:
				removed := tr.Delete(p)
				if removed != ref[p] {
					t.Fatalf("order %d: Delete(%v) removed=%v but ref present=%v", order, p, removed, ref[p])
				}
				delete(ref, p)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("order %d: Len=%d, ref=%d", order, tr.Len(), len(ref))
		}
		want := make([]kv.Pair, 0, len(ref))
		for p := range ref {
			want = append(want, p)
		}
		kv.Sort(want)
		got := collect(t, tr)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %d: element %d = %v, want %v", order, i, got[i], want[i])
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
	}
}

// Property: inserting any set of pairs yields a sorted scan containing
// exactly the unique pairs.
func TestQuickInsertScanSorted(t *testing.T) {
	f := func(keys []uint32, refs []uint8) bool {
		tr := NewOrder(8)
		seen := map[kv.Pair]bool{}
		for i, k := range keys {
			r := uint32(0)
			if i < len(refs) {
				r = uint32(refs[i])
			}
			p := pair(k%1000, r)
			tr.Insert(p)
			seen[p] = true
		}
		got := collect(t, tr)
		if len(got) != len(seen) {
			return false
		}
		if !kv.IsSorted(got) {
			return false
		}
		for _, p := range got {
			if !seen[p] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: QueryPairs(lo,hi) matches filtering the reference set.
func TestQuickQueryMatchesReference(t *testing.T) {
	f := func(keys []uint32, lo, hi uint32) bool {
		lo %= 2000
		hi %= 2000
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New()
		ref := []kv.Pair{}
		for i, k := range keys {
			p := pair(k%2000, uint32(i))
			tr.Insert(p)
			ref = append(ref, p)
		}
		kv.Sort(ref)
		want := []kv.Pair{}
		for _, p := range ref {
			if p.Key >= lo && p.Key <= hi {
				want = append(want, p)
			}
		}
		got := query(t, tr, lo, hi)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete after insert restores the previous content.
func TestQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(base []uint16, extra []uint16) bool {
		tr := NewOrder(6)
		for _, k := range base {
			tr.Insert(pair(uint32(k), uint32(k)))
		}
		before := collect(t, tr)
		inserted := []kv.Pair{}
		for _, k := range extra {
			p := pair(uint32(k), uint32(k)+1<<20)
			if tr.Insert(p) {
				inserted = append(inserted, p)
			}
		}
		for _, p := range inserted {
			if !tr.Delete(p) {
				return false
			}
		}
		after := collect(t, tr)
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSortHelpers(t *testing.T) {
	ps := []kv.Pair{pair(3, 0), pair(1, 2), pair(1, 1), pair(2, 0)}
	kv.Sort(ps)
	want := []kv.Pair{pair(1, 1), pair(1, 2), pair(2, 0), pair(3, 0)}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("Sort: element %d = %v, want %v", i, ps[i], want[i])
		}
	}
	if kv.LowerBound(ps, 2) != 2 {
		t.Fatalf("LowerBound = %d, want 2", kv.LowerBound(ps, 2))
	}
	if kv.UpperBound(ps, 1) != 2 {
		t.Fatalf("UpperBound = %d, want 2", kv.UpperBound(ps, 1))
	}
}

func TestMergeHelpers(t *testing.T) {
	a := []kv.Pair{pair(1, 0), pair(3, 0), pair(5, 0)}
	b := []kv.Pair{pair(2, 0), pair(3, 1), pair(6, 0)}
	f := kv.MergeFiltered(a, b, func(p kv.Pair) bool { return p.Key%2 == 1 }, len(a)+len(b))
	for _, p := range f {
		if p.Key%2 != 1 {
			t.Fatalf("MergeFiltered kept %v", p)
		}
	}
	if len(f) != 4 {
		t.Fatalf("MergeFiltered kept %d, want 4", len(f))
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(pair(uint32(i), uint32(i)))
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint32, b.N)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(pair(keys[i], uint32(i)))
	}
}

func BenchmarkQueryNarrow(b *testing.B) {
	tr := New()
	for i := uint32(0); i < 1<<17; i++ {
		tr.Insert(pair(i, i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint32(i) % (1 << 17)
		tr.QueryPairs(lo, lo+4, func([]kv.Pair) bool { return true })
	}
}

func TestLowerBoundPair(t *testing.T) {
	pairs := []kv.Pair{pair(1, 0), pair(1, 5), pair(2, 0), pair(4, 1)}
	if got := lowerBoundPair(pairs, pair(1, 5)); got != 1 {
		t.Fatalf("lowerBoundPair = %d, want 1", got)
	}
	if got := lowerBoundPair(pairs, pair(3, 0)); got != 3 {
		t.Fatalf("lowerBoundPair = %d, want 3", got)
	}
	if got := lowerBoundPair(pairs, pair(9, 0)); got != 4 {
		t.Fatalf("lowerBoundPair = %d, want 4", got)
	}
	// sort.SliceIsSorted sanity for the fixture itself
	if !sort.SliceIsSorted(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) }) {
		t.Fatal("fixture not sorted")
	}
}
