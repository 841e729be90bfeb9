package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pimtree/internal/kv"
)

// TestBuildMergedWithConcurrentSearches exercises merge phase 1 of the
// non-blocking protocol: the old tree serves lookups (lock-free TS plus
// locked TI scans) while BuildMerged constructs the new tree from the same
// components. No inserts run during the build, exactly as the join's task
// barrier guarantees.
func TestBuildMergedWithConcurrentSearches(t *testing.T) {
	w := 1 << 13
	pt := NewSharedPIMTree(w, PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2}, false)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32()%1000000, uint32(i)))
	}
	pt.MergeInPlace(alwaysLive)
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32()%1000000, uint32(w+i)))
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + g)))
			for !stop.Load() {
				lo := rng.Uint32() % 1000000
				checkRange(t, query(t, pt, lo, lo+10000), lo, lo+10000)
			}
		}(g)
	}
	var merged *SharedPIMTree
	for i := 0; i < 5; i++ {
		merged, _ = pt.BuildMerged(alwaysLive)
	}
	stop.Store(true)
	wg.Wait()
	if merged.t.TSLen() != 2*w {
		t.Fatalf("merged TS = %d, want %d", merged.t.TSLen(), 2*w)
	}
	if err := merged.settled().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The merged tree must lock and count per subindex of its own TS.
	if n := merged.Subindexes(); len(merged.locks) != n || len(merged.InsertCounts()) != n {
		t.Fatalf("merged tree has %d locks and %d counts for %d subindexes", len(merged.locks), len(merged.InsertCounts()), n)
	}
	// The source tree must be untouched.
	if src := pt.settled(); src.TILen() != w || src.TSLen() != w {
		t.Fatalf("source mutated: TI=%d TS=%d", src.TILen(), src.TSLen())
	}
}

// TestConcurrentQueryDuringHandoffChains forces range scans that cross many
// subindex boundaries while inserts land in the same partitions, stressing
// the lock-handoff path (Algorithm 2 lines 27–33).
func TestConcurrentQueryDuringHandoffChains(t *testing.T) {
	w := 1 << 12
	pt := NewSharedPIMTree(w, PIMTreeConfig{
		MergeRatio:     1,
		InsertionDepth: 3,
	}, false)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32(), uint32(i)))
	}
	pt.MergeInPlace(alwaysLive)
	if pt.Subindexes() < 4 {
		t.Skipf("need several subindexes, got %d", pt.Subindexes())
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				pt.Insert(pair(rng.Uint32(), uint32(1<<20|g<<16|i)))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 200; i++ {
				// Whole-domain scans cross every subindex boundary.
				lo := rng.Uint32() % (1 << 28)
				prev := kv.Pair{}
				first := true
				pt.lockedScan(pt.t.route(lo), lo, ^uint32(0), func(run []kv.Pair) bool {
					for _, p := range run {
						if !first && p.Less(prev) {
							t.Errorf("TI scan went backwards: %v after %v", p, prev)
							return false
						}
						prev, first = p, false
					}
					return true
				})
			}
		}(g)
	}
	wg.Wait()
	if err := pt.settled().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeUnderRepeatedCycles drives many insert/merge cycles and verifies
// content stability and bounded growth (the sliding-window steady state).
func TestMergeUnderRepeatedCycles(t *testing.T) {
	w := 512
	pt := NewPIMTree(w, PIMTreeConfig{MergeRatio: 0.25, InsertionDepth: 2})
	win := make([]uint64, 4*w) // ref -> seq
	seq := uint64(0)
	live := func(p kv.Pair) bool {
		s := win[p.Ref]
		return s < seq && seq-s <= uint64(w)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40*w; i++ {
		ref := uint32(seq % uint64(len(win)))
		win[ref] = seq
		seq++
		pt.Insert(pair(rng.Uint32()%10000, ref))
		if pt.NeedsMerge() {
			pt.MergeInPlace(live)
		}
		if pt.Len() > 2*w+pt.MergeThreshold() {
			t.Fatalf("index grew unboundedly: %d at step %d", pt.Len(), i)
		}
	}
	if merges, _ := pt.Merges(); merges < 40 {
		t.Fatalf("expected many merges, got %d", merges)
	}
}
