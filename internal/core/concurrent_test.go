package core

import (
	"math"
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
	if n := len(merged.t.subs); len(merged.locks) != n || len(merged.InsertCounts()) != n {
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
	if n := len(pt.t.subs); n < 4 {
		t.Skipf("need several subindexes, got %d", n)
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

// Insert and QueryPairs are safe for concurrent use. Writers insert disjoint
// refs while readers scan ranges wide enough to cross subindex boundaries,
// so each scan hands subindex locks over while writers hold them; no scan
// may emit a key outside its range, and afterwards every inserted (key, ref)
// is found exactly once.
func TestSharedPIMTreeConcurrentInsertSearch(t *testing.T) {
	const w, g, perWriter = 1 << 12, 4, 2000
	pt := NewSharedPIMTree(w, PIMTreeConfig{InsertionDepth: 2}, false)
	key := func(ref uint32) uint32 { return ref * 2654435761 } // spread over the domain
	for ref := uint32(0); ref < w; ref++ {
		pt.Insert(pair(key(ref), ref))
	}
	pt.MergeInPlace(alwaysLive)
	if n := len(pt.t.subs); n < 2 {
		t.Fatalf("%d subindexes after priming; the scans would never hand over", n)
	}
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(2)
		go func(first uint32) {
			defer wg.Done()
			for ref := first; ref < first+perWriter; ref++ {
				pt.Insert(pair(key(ref), ref))
			}
		}(w + uint32(i)*perWriter)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 300; n++ {
				lo := rng.Uint32()
				hi := lo + rng.Uint32()>>2
				if hi < lo {
					hi = math.MaxUint32
				}
				pt.QueryPairs(lo, hi, func(run []kv.Pair) bool {
					for _, p := range run {
						if p.Key < lo || p.Key > hi {
							t.Errorf("QueryPairs(%d, %d) emitted key %d (ref %d)", lo, hi, p.Key, p.Ref)
							return false
						}
					}
					return true
				})
			}
		}(int64(i))
	}
	wg.Wait()
	seen := make(map[uint32]int)
	pt.QueryPairs(0, math.MaxUint32, func(run []kv.Pair) bool {
		for _, p := range run {
			if p.Key != key(p.Ref) {
				t.Fatalf("ref %d found under key %d, inserted under %d", p.Ref, p.Key, key(p.Ref))
			}
			seen[p.Ref]++
		}
		return true
	})
	for ref := uint32(0); ref < w+g*perWriter; ref++ {
		if seen[ref] != 1 {
			t.Fatalf("ref %d found %d times, want once", ref, seen[ref])
		}
	}
	if len(seen) != w+g*perWriter {
		t.Fatalf("%d refs found, want %d", len(seen), w+g*perWriter)
	}
}
