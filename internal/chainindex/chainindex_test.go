package chainindex

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimtree/internal/kv"
)

func pair(k, r uint32) kv.Pair { return kv.Pair{Key: k, Ref: r} }

// query collects QueryPairs(lo, hi), failing t on an empty run or a refusal
// no run made.
func query(t *testing.T, c *Chain, lo, hi uint32) []kv.Pair {
	t.Helper()
	var out []kv.Pair
	if c.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		if len(run) == 0 {
			t.Fatalf("QueryPairs(%d,%d) emitted an empty run", lo, hi)
		}
		out = append(out, run...)
		return true
	}) {
		t.Fatalf("QueryPairs(%d,%d) reported a refusal no run made", lo, hi)
	}
	return out
}

func TestVariantString(t *testing.T) {
	if BChain.String() != "B-chain" || IBChain.String() != "IB-chain" {
		t.Fatal("variant names wrong")
	}
}

func TestCapacitySizing(t *testing.T) {
	if c := New(1, 100, BChain); c.SubindexCapacity() != 100 {
		t.Fatalf("L=1 capacity %d, want 100", c.SubindexCapacity())
	}
	if c := New(2, 100, BChain); c.SubindexCapacity() != 100 {
		t.Fatalf("L=2 capacity %d, want 100", c.SubindexCapacity())
	}
	if c := New(5, 100, BChain); c.SubindexCapacity() != 25 {
		t.Fatalf("L=5 capacity %d, want 25", c.SubindexCapacity())
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10, BChain) },
		func() { New(2, 0, BChain) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestArchiveRotation(t *testing.T) {
	c := New(4, 30, BChain) // capacity 10
	for i := 0; i < 35; i++ {
		c.Insert(pair(uint32(i), uint32(i)), uint64(i))
	}
	if c.ChainedCount() != 3 {
		t.Fatalf("ChainedCount = %d, want 3", c.ChainedCount())
	}
	if c.Len() != 35 {
		t.Fatalf("Len = %d, want 35", c.Len())
	}
}

func TestAdvanceDropsExpiredSubindexes(t *testing.T) {
	c := New(4, 30, BChain) // capacity 10
	for i := 0; i < 40; i++ {
		c.Insert(pair(uint32(i), uint32(i)), uint64(i))
	}
	// Oldest live = 10: the first subindex (seqs 0..9) is fully expired.
	c.Advance(10)
	if c.ChainedCount() != 2 {
		t.Fatalf("ChainedCount = %d after Advance, want 2", c.ChainedCount())
	}
	if c.Len() != 30 {
		t.Fatalf("Len = %d after Advance, want 30", c.Len())
	}
	// Oldest live = 15: subindex holding seqs 10..19 still has live tuples.
	c.Advance(15)
	if c.ChainedCount() != 2 {
		t.Fatalf("partially live subindex dropped")
	}
}

func TestQueryAcrossSubindexes(t *testing.T) {
	for _, v := range []Variant{BChain, IBChain} {
		c := New(3, 20, v) // capacity 10
		for i := 0; i < 30; i++ {
			c.Insert(pair(uint32(i%50), uint32(i)), uint64(i))
		}
		got := query(t, c, 5, 15)
		want := 0
		for i := 0; i < 30; i++ {
			k := uint32(i % 50)
			if k >= 5 && k <= 15 {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("%v: QueryPairs returned %d, want %d", v, len(got), want)
		}
		for _, p := range got {
			if p.Key < 5 || p.Key > 15 {
				t.Fatalf("%v: out-of-range key %d", v, p.Key)
			}
		}
	}
}

// TestQueryEarlyStop refuses the second subindex's run: the walk stops
// there, before the active subindex.
func TestQueryEarlyStop(t *testing.T) {
	for _, v := range []Variant{BChain, IBChain} {
		c := New(3, 20, v) // capacity 10: two archives and the active subindex
		for i := 0; i < 30; i++ {
			c.Insert(pair(uint32(i), uint32(i)), uint64(i))
		}
		n, calls := 0, 0
		stopped := c.QueryPairs(0, 100, func(run []kv.Pair) bool {
			calls++
			n += len(run)
			return n < 15
		})
		if !stopped || calls != 2 || n != 20 {
			t.Fatalf("%v: early stop: stopped %v after %d runs of %d elements, want stopped after 2 of 20",
				v, stopped, calls, n)
		}
	}
}

// TestRefusedRunStopsChain refuses the first run, from the oldest archive,
// of a range that ends inside every subindex's leaf: emit is never called
// again and the refusal is reported.
func TestRefusedRunStopsChain(t *testing.T) {
	for _, v := range []Variant{BChain, IBChain} {
		c := New(5, 40, v) // capacity 10: four archives and the active subindex
		for i := 0; i < 50; i++ {
			c.Insert(pair(uint32(i%10*10), uint32(i)), uint64(i))
		}
		if c.ChainedCount() != 4 {
			t.Fatalf("%v: ChainedCount = %d, want 4", v, c.ChainedCount())
		}
		calls := 0
		stopped := c.QueryPairs(0, 25, func([]kv.Pair) bool { calls++; return false })
		if !stopped || calls != 1 {
			t.Fatalf("%v: refusing the first run: stopped %v after %d emit calls, want stopped after 1",
				v, stopped, calls)
		}
	}
}

// Property: for both variants, the chain behaves like a multiset of all
// inserted, not-yet-disposed elements under range queries.
func TestQuickChainMatchesReference(t *testing.T) {
	f := func(keys []uint16, lRaw, wRaw uint8, lo16, hi16 uint16) bool {
		l := int(lRaw%6) + 1
		w := int(wRaw%64) + 8
		lo, hi := uint32(lo16%600), uint32(hi16%600)
		if lo > hi {
			lo, hi = hi, lo
		}
		for _, v := range []Variant{BChain, IBChain} {
			c := New(l, w, v)
			ref := []kv.Pair{}
			for i, k := range keys {
				p := pair(uint32(k%600), uint32(i))
				c.Insert(p, uint64(i))
				ref = append(ref, p)
			}
			want := 0
			for _, p := range ref {
				if p.Key >= lo && p.Key <= hi {
					want++
				}
			}
			if got := query(t, c, lo, hi); len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Simulate a full sliding-window workload: after warmup, the number of
// retained elements must stay bounded by w + capacity (the window plus the
// partially-expired oldest subindex).
func TestSteadyStateBound(t *testing.T) {
	for _, v := range []Variant{BChain, IBChain} {
		w := 64
		c := New(4, w, v)
		for i := 0; i < 2000; i++ {
			c.Insert(pair(rand.Uint32()%1000, uint32(i)), uint64(i))
			if i >= w {
				c.Advance(uint64(i - w + 1))
			}
			if c.Len() > w+c.SubindexCapacity()+1 {
				t.Fatalf("%v: retained %d > bound %d", v, c.Len(), w+c.SubindexCapacity()+1)
			}
		}
	}
}

func TestMemoryNonZero(t *testing.T) {
	c := New(3, 1000, IBChain)
	for i := 0; i < 1500; i++ {
		c.Insert(pair(uint32(i), uint32(i)), uint64(i))
	}
	leaf, _ := c.Memory()
	if leaf < 1500*kv.PairBytes {
		t.Fatalf("leaf bytes %d below payload", leaf)
	}
}
