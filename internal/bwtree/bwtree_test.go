package bwtree

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pimtree/internal/kv"
)

func pair(k, r uint32) kv.Pair { return kv.Pair{Key: k, Ref: r} }

// query collects QueryPairs(lo, hi), reporting an empty run or a refusal no
// run made with t.Errorf, so concurrent readers can call it too.
func query(t testing.TB, tr *Tree, lo, hi uint32) []kv.Pair {
	var out []kv.Pair
	if tr.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		if len(run) == 0 {
			t.Errorf("QueryPairs(%d,%d) emitted an empty run", lo, hi)
		}
		out = append(out, run...)
		return true
	}) {
		t.Errorf("QueryPairs(%d,%d) reported a refusal no run made", lo, hi)
	}
	return out
}

// collect returns every element in order, walking the leaf side links.
func collect(t testing.TB, tr *Tree) []kv.Pair { return query(t, tr, 0, math.MaxUint32) }

// checkRange reports, with t.Errorf, an element of got outside [lo, hi] or
// out of order.
func checkRange(t testing.TB, got []kv.Pair, lo, hi uint32) {
	for i, p := range got {
		if p.Key < lo || p.Key > hi {
			t.Errorf("result %v outside [%d,%d]", p, lo, hi)
			return
		}
		if i > 0 && p.Less(got[i-1]) {
			t.Errorf("unsorted results: %v then %v", got[i-1], p)
			return
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(0, Config{})
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d, want 1", tr.Height())
	}
	if got := collect(t, tr); len(got) != 0 {
		t.Fatalf("QueryPairs on empty emitted %d", len(got))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertContains(t *testing.T) {
	tr := New(1000, Config{})
	for i := uint32(0); i < 1000; i++ {
		tr.Insert(pair(i*13%777, i))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	for i := uint32(0); i < 1000; i++ {
		if !tr.Contains(pair(i*13%777, i)) {
			t.Fatalf("Contains(%d) = false", i)
		}
	}
	if tr.Contains(pair(1, 99999)) {
		t.Fatal("Contains reported absent element")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsProduceMultipleLevels(t *testing.T) {
	tr := New(1<<14, Config{MaxLeaf: 16, MaxInner: 8, ConsolidateAt: 4})
	for i := uint32(0); i < 1<<14; i++ {
		tr.Insert(pair(i, i))
	}
	if h := tr.Height(); h < 3 {
		t.Fatalf("Height = %d, want >= 3 after 16K inserts with tiny nodes", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	tr := New(2000, Config{MaxLeaf: 16, ConsolidateAt: 4})
	for i := uint32(0); i < 2000; i++ {
		tr.Insert(pair(i%301, i))
	}
	for i := uint32(0); i < 2000; i += 2 {
		if !tr.Delete(pair(i%301, i)) {
			t.Fatalf("Delete of present element %d failed", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", tr.Len())
	}
	if tr.Delete(pair(5, 400000)) {
		t.Fatal("Delete of absent element succeeded")
	}
	for i := uint32(0); i < 2000; i++ {
		want := i%2 == 1
		if got := tr.Contains(pair(i%301, i)); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRange(t *testing.T) {
	tr := New(5000, Config{MaxLeaf: 32, ConsolidateAt: 6})
	ref := []kv.Pair{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		p := pair(rng.Uint32()%3000, uint32(i))
		tr.Insert(p)
		ref = append(ref, p)
	}
	kv.Sort(ref)
	for trial := 0; trial < 60; trial++ {
		lo := uint32(trial * 50 % 3000)
		hi := lo + uint32(trial%200)
		want := []kv.Pair{}
		for _, p := range ref {
			if p.Key >= lo && p.Key <= hi {
				want = append(want, p)
			}
		}
		got := query(t, tr, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("QueryPairs(%d,%d) = %d elems, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("QueryPairs(%d,%d)[%d] = %v, want %v", lo, hi, i, got[i], want[i])
			}
		}
		calls := 0
		stopped := tr.QueryPairs(lo, hi, func([]kv.Pair) bool { calls++; return false })
		if stopped != (len(want) > 0) || calls > 1 {
			t.Fatalf("QueryPairs(%d,%d) refusing its first run: stopped %v after %d calls, want %v",
				lo, hi, stopped, calls, len(want) > 0)
		}
	}
}

func TestDuplicateKeyRunsSurviveSplits(t *testing.T) {
	// More duplicates of one key than a leaf holds: the node must go
	// oversized rather than split mid-run.
	tr := New(500, Config{MaxLeaf: 8, ConsolidateAt: 3})
	for r := uint32(0); r < 100; r++ {
		tr.Insert(pair(42, r))
	}
	if n := len(query(t, tr, 42, 42)); n != 100 {
		t.Fatalf("QueryPairs found %d duplicates, want 100", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrder(t *testing.T) {
	tr := New(3000, Config{MaxLeaf: 16, ConsolidateAt: 4})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		tr.Insert(pair(rng.Uint32()%10000, uint32(i)))
	}
	got := collect(t, tr)
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("full range out of order: %v then %v", got[i-1], got[i])
		}
	}
	if len(got) != 3000 {
		t.Fatalf("full range visited %d, want 3000", len(got))
	}
}

func TestSlidingWindowWorkload(t *testing.T) {
	// The exact usage pattern of IBWJ: insert new, delete expired.
	w := 512
	tr := New(w, Config{MaxLeaf: 16, ConsolidateAt: 4})
	keys := make([]uint32, 0, 5000)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := rng.Uint32() % 4096
		keys = append(keys, k)
		tr.Insert(pair(k, uint32(i)))
		if i >= w {
			old := i - w
			if !tr.Delete(pair(keys[old], uint32(old))) {
				t.Fatalf("expired delete %d failed", old)
			}
		}
		if tr.Len() > w+1 {
			t.Fatalf("Len = %d exceeds window", tr.Len())
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInserts(t *testing.T) {
	tr := New(1<<14, Config{MaxLeaf: 32, ConsolidateAt: 4})
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				tr.Insert(pair(rng.Uint32()%50000, uint32(g*perG+i)))
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*perG)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	tr := New(1<<14, Config{MaxLeaf: 32, ConsolidateAt: 4})
	const goroutines = 6
	const perG = 1500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			// Each goroutine owns a disjoint ref space; deletes target own
			// inserts, mirroring the join's ownership discipline.
			own := make([]kv.Pair, 0, perG)
			for i := 0; i < perG; i++ {
				p := pair(rng.Uint32()%20000, uint32(g<<20|i))
				tr.Insert(p)
				own = append(own, p)
				if i%3 == 2 {
					victim := own[rng.Intn(len(own))]
					tr.Delete(victim) // may already be deleted; ignore result
				}
				if i%5 == 4 {
					lo := rng.Uint32() % 20000
					checkRange(t, query(t, tr, lo, lo+100), lo, lo+100)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersSeeSortedRanges(t *testing.T) {
	tr := New(1<<13, Config{MaxLeaf: 16, ConsolidateAt: 3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Insert(pair(rng.Uint32()%8192, uint32(i)))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			for i := 0; i < 300; i++ {
				lo := rng.Uint32() % 8192
				checkRange(t, query(t, tr, lo, lo+500), lo, lo+500)
			}
		}(r)
	}
	// Let readers finish, then stop the writer.
	wgReaders := make(chan struct{})
	go func() { wg.Wait(); close(wgReaders) }()
	// Writer runs until readers are done: approximate by closing stop after
	// a short synchronization via a counter-free approach.
	// Simpler: close stop once the readers' goroutines have finished their
	// fixed work; detect via a separate WaitGroup would race with wg.Wait,
	// so just sleep-free loop on tr.Len growth bound.
	for tr.Len() < 2000 {
	}
	close(stop)
	<-wgReaders
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndHeight(t *testing.T) {
	tr := New(1<<12, Config{MaxLeaf: 16, ConsolidateAt: 4})
	for i := uint32(0); i < 1<<12; i++ {
		tr.Insert(pair(i, i))
	}
	s := tr.StatsNow()
	if s.Len != 1<<12 {
		t.Fatalf("stats len %d", s.Len)
	}
	if s.Pages < 10 {
		t.Fatalf("pages %d suspiciously low", s.Pages)
	}
	if s.Height < 2 {
		t.Fatalf("height %d, want >= 2", s.Height)
	}
}

func TestQuickMatchesReference(t *testing.T) {
	f := func(ops []uint32) bool {
		tr := New(1024, Config{MaxLeaf: 8, MaxInner: 4, ConsolidateAt: 2})
		ref := map[kv.Pair]bool{}
		for i, op := range ops {
			p := pair(op%200, uint32(i%40))
			if op%3 == 0 && ref[p] {
				tr.Delete(p)
				delete(ref, p)
			} else if !ref[p] {
				tr.Insert(p)
				ref[p] = true
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		got := collect(t, tr)
		if len(got) != len(ref) {
			return false
		}
		for _, p := range got {
			if !ref[p] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingExhaustionPanics(t *testing.T) {
	tr := New(0, Config{MappingSlots: 8, MaxLeaf: 4, ConsolidateAt: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected mapping exhaustion panic")
		}
	}()
	for i := uint32(0); i < 10000; i++ {
		tr.Insert(pair(i, i))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New(b.N, Config{})
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

func BenchmarkConcurrentInsert(b *testing.B) {
	tr := New(b.N+1024, Config{})
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(rand.Int63()))
		i := uint32(0)
		for pb.Next() {
			tr.Insert(pair(rng.Uint32(), i))
			i++
		}
	})
}
