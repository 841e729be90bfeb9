package pimtree

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// NewIndex's MergeRatio contract: zero selects the default, anything else
// must lie in (0, 1], and the error spells the zero-means-default rule out.
func TestNewIndexMergeRatioValidation(t *testing.T) {
	cases := []struct {
		name  string
		ratio float64
		ok    bool
	}{
		{"zero selects default", 0, true},
		{"smallest positive", math.SmallestNonzeroFloat64, true},
		{"paper serial default", 1.0 / 16, true},
		{"half", 0.5, true},
		{"upper bound inclusive", 1, true},
		{"negative", -0.001, false},
		{"negative one", -1, false},
		{"just above one", math.Nextafter(1, 2), false},
		{"two", 2, false},
		{"NaN", math.NaN(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := NewIndex(64, IndexOptions{MergeRatio: c.ratio})
			if c.ok {
				if err != nil {
					t.Fatalf("ratio %v rejected: %v", c.ratio, err)
				}
				// The index must actually work with the accepted ratio.
				ix.Insert(1, 0)
				found := false
				ix.Search(0, 2, func(key, ref uint32) bool { found = true; return true })
				if !found {
					t.Fatal("accepted index lost an insert")
				}
				return
			}
			if err == nil {
				t.Fatalf("ratio %v accepted", c.ratio)
			}
			if !strings.Contains(err.Error(), "zero selects the default") {
				t.Fatalf("error does not state the zero-means-default rule: %v", err)
			}
		})
	}
}

func TestNewIndexOtherValidation(t *testing.T) {
	if _, err := NewIndex(0, IndexOptions{}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewIndex(16, IndexOptions{InsertionDepth: -1}); err == nil {
		t.Fatal("negative insertion depth accepted")
	}
}

// Insert and Search are documented safe for concurrent use. Writers insert
// disjoint refs while readers search ranges wide enough to cross subindex
// boundaries; no search may emit a key outside its range, and afterwards
// every inserted (key, ref) is found exactly once.
func TestIndexConcurrentInsertSearch(t *testing.T) {
	const w, g, perWriter = 1 << 12, 4, 2000
	ix, err := NewIndex(w, IndexOptions{InsertionDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	key := func(ref uint32) uint32 { return ref * 2654435761 } // spread over the domain
	for ref := uint32(0); ref < w; ref++ {
		ix.Insert(key(ref), ref)
	}
	ix.Maintain(func(uint32) bool { return true })
	if ix.Subindexes() < 2 {
		t.Fatalf("%d subindexes after priming; the scans would never hand over", ix.Subindexes())
	}
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(2)
		go func(first uint32) {
			defer wg.Done()
			for ref := first; ref < first+perWriter; ref++ {
				ix.Insert(key(ref), ref)
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
				ix.Search(lo, hi, func(k, ref uint32) bool {
					if k < lo || k > hi {
						t.Errorf("Search(%d, %d) emitted key %d (ref %d)", lo, hi, k, ref)
						return false
					}
					return true
				})
			}
		}(int64(i))
	}
	wg.Wait()
	seen := make(map[uint32]int)
	ix.Search(0, math.MaxUint32, func(k, ref uint32) bool {
		if k != key(ref) {
			t.Fatalf("ref %d found under key %d, inserted under %d", ref, k, key(ref))
		}
		seen[ref]++
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
