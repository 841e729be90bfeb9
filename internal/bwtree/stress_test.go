package bwtree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pimtree/internal/kv"
)

// TestScanDuringSplitStorm runs range scans concurrently with inserts tuned
// to trigger frequent splits (tiny nodes, aggressive consolidation), checking
// every scan result for order and range containment.
func TestScanDuringSplitStorm(t *testing.T) {
	tr := New(1<<12, Config{MaxLeaf: 8, MaxInner: 4, ConsolidateAt: 2})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; !stop.Load(); i++ {
				tr.Insert(kv.Pair{Key: rng.Uint32() % 100000, Ref: uint32(g<<24 | i)})
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 400; i++ {
				lo := rng.Uint32() % 100000
				hi := lo + 5000
				checkRange(t, query(t, tr, lo, hi), lo, hi)
			}
		}(g)
	}
	// Stop writers once readers have finished their fixed workload: detect
	// by waiting on a separate goroutine group would race; instead bound the
	// writers by tree size.
	for tr.Len() < 60000 {
	}
	stop.Store(true)
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSideLinkChainCoversEverything verifies that after heavy splitting, the
// leaf side-link chain visits every element exactly once in order.
func TestSideLinkChainCoversEverything(t *testing.T) {
	tr := New(1<<14, Config{MaxLeaf: 8, MaxInner: 4, ConsolidateAt: 2})
	const n = 1 << 14
	for i := uint32(0); i < n; i++ {
		tr.Insert(kv.Pair{Key: i * 7 % 65536, Ref: i})
	}
	got := collect(t, tr)
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("chain order violation: %v then %v", got[i-1], got[i])
		}
	}
	if len(got) != n {
		t.Fatalf("side-link chain visited %d, want %d", len(got), n)
	}
}

// TestDeleteStormWithConcurrentScans mixes window-style insert+delete load
// with scans, the exact access pattern of the shared-index join.
func TestDeleteStormWithConcurrentScans(t *testing.T) {
	tr := New(1<<12, Config{MaxLeaf: 16, ConsolidateAt: 3})
	const w = 2048
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		keys := make([]uint32, 0, 1<<16)
		for i := 0; !stop.Load(); i++ {
			k := rng.Uint32() % 50000
			keys = append(keys, k)
			tr.Insert(kv.Pair{Key: k, Ref: uint32(i)})
			if i >= w {
				old := i - w
				if !tr.Delete(kv.Pair{Key: keys[old], Ref: uint32(old)}) {
					t.Errorf("window delete %d failed", old)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 3000; i++ {
			lo := rng.Uint32() % 50000
			checkRange(t, query(t, tr, lo, lo+1000), lo, lo+1000)
		}
		stop.Store(true)
	}()
	wg.Wait()
	if got := tr.Len(); got > w+1 {
		t.Fatalf("Len = %d exceeds window bound", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
