package cstree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pimtree/internal/kv"
)

func sortedPairs(n int, seed int64, keySpace uint32) []kv.Pair {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]kv.Pair, n)
	for i := range ps {
		ps[i] = kv.Pair{Key: rng.Uint32() % keySpace, Ref: uint32(i)}
	}
	kv.Sort(ps)
	return ps
}

// query collects QueryPairs(lo, hi), failing t unless the range comes as at
// most one non-empty run and is reported exhausted.
func query(t *testing.T, tr *Tree, lo, hi uint32) []kv.Pair {
	t.Helper()
	var out []kv.Pair
	calls := 0
	stopped := tr.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		calls++
		out = append(out, run...)
		return true
	})
	if stopped || calls > 1 || (calls == 1 && len(out) == 0) {
		t.Fatalf("QueryPairs(%d,%d): stopped %v after %d runs of %d elements", lo, hi, stopped, calls, len(out))
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	tr := Build(nil, Config{})
	if tr.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tr.Len())
	}
	if tr.InnerDepth() != 0 {
		t.Fatalf("InnerDepth = %d, want 0", tr.InnerDepth())
	}
	if lb := tr.LowerBound(5); lb != 0 {
		t.Fatalf("LowerBound on empty = %d, want 0", lb)
	}
	if got := query(t, tr, 0, math.MaxUint32); len(got) != 0 {
		t.Fatalf("QueryPairs on empty emitted %d", len(got))
	}
}

func TestBuildSingleLeaf(t *testing.T) {
	ps := sortedPairs(10, 1, 100)
	tr := Build(ps, Config{})
	if tr.InnerDepth() != 0 {
		t.Fatalf("InnerDepth = %d, want 0 for single leaf", tr.InnerDepth())
	}
	for i, p := range ps {
		lb := tr.LowerBound(p.Key)
		if lb > i {
			t.Fatalf("LowerBound(%d) = %d, past index %d", p.Key, lb, i)
		}
	}
}

func TestBuildUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with unsorted input did not panic")
		}
	}()
	Build([]kv.Pair{{Key: 2}, {Key: 1}}, Config{})
}

func TestLowerBoundExhaustive(t *testing.T) {
	for _, cfg := range []Config{
		{Fanout: 2, LeafSize: 2},
		{Fanout: 4, LeafSize: 4},
		{Fanout: 32, LeafSize: 32},
		{Fanout: 8, LeafSize: 16},
	} {
		for _, n := range []int{0, 1, 2, 3, 7, 15, 16, 17, 63, 64, 65, 1000, 4097} {
			ps := sortedPairs(n, int64(n), 500)
			tr := Build(ps, cfg)
			for key := uint32(0); key < 510; key += 3 {
				want := kv.LowerBound(ps, key)
				got := tr.LowerBound(key)
				if got != want {
					t.Fatalf("cfg=%+v n=%d: LowerBound(%d) = %d, want %d", cfg, n, key, got, want)
				}
			}
		}
	}
}

func TestQueryMatchesReference(t *testing.T) {
	ps := sortedPairs(5000, 2, 2000)
	tr := Build(ps, Config{Fanout: 8, LeafSize: 8})
	for trial := 0; trial < 100; trial++ {
		lo := uint32(trial * 17 % 2000)
		hi := lo + uint32(trial%64)
		want := []kv.Pair{}
		for _, p := range ps {
			if p.Key >= lo && p.Key <= hi {
				want = append(want, p)
			}
		}
		got := query(t, tr, lo, hi)
		if len(got) != len(want) {
			t.Fatalf("QueryPairs(%d,%d) returned %d, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("QueryPairs(%d,%d)[%d] = %v, want %v", lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestQueryEarlyStop(t *testing.T) {
	ps := sortedPairs(1000, 3, 100)
	tr := Build(ps, Config{})
	calls := 0
	if !tr.QueryPairs(0, math.MaxUint32, func([]kv.Pair) bool { calls++; return false }) || calls != 1 {
		t.Fatalf("refusing the run: %d calls or no stop reported", calls)
	}
	if tr.QueryPairs(0, math.MaxUint32, func([]kv.Pair) bool { return true }) {
		t.Fatal("an exhausted range reported a refusal")
	}
	if tr.QueryPairs(200, 300, func([]kv.Pair) bool { return false }) {
		t.Fatal("an empty range, which has no run to refuse, reported a refusal")
	}
}

func TestRouteToDepthCoversAllNodes(t *testing.T) {
	ps := make([]kv.Pair, 1<<12)
	for i := range ps {
		ps[i] = kv.Pair{Key: uint32(i), Ref: uint32(i)}
	}
	tr := Build(ps, Config{Fanout: 4, LeafSize: 4})
	for d := 0; d <= tr.InnerDepth(); d++ {
		maxOrd := tr.NodesAtDepth(d) - 1
		if d == tr.InnerDepth() {
			maxOrd = (tr.Len()+tr.LeafSize()-1)/tr.LeafSize() - 1
		}
		seen := map[int]bool{}
		for _, p := range ps {
			ord := tr.RouteToDepth(p.Key, d)
			if ord < 0 || ord > maxOrd {
				t.Fatalf("depth %d: RouteToDepth(%d) = %d out of [0,%d]", d, p.Key, ord, maxOrd)
			}
			seen[ord] = true
		}
		if d > 0 && len(seen) < 2 {
			t.Fatalf("depth %d: routing collapsed to %d node(s)", d, len(seen))
		}
	}
}

func TestRouteToDepthMonotone(t *testing.T) {
	ps := sortedPairs(4000, 4, 1<<20)
	tr := Build(ps, Config{Fanout: 8, LeafSize: 8})
	for d := 1; d <= tr.InnerDepth(); d++ {
		prev := -1
		for key := uint32(0); key < 1<<20; key += 1 << 12 {
			ord := tr.RouteToDepth(key, d)
			if ord < prev {
				t.Fatalf("depth %d: routing not monotone (%d after %d at key %d)", d, ord, prev, key)
			}
			prev = ord
		}
	}
}

func TestSubtreeBounds(t *testing.T) {
	ps := make([]kv.Pair, 1000)
	for i := range ps {
		ps[i] = kv.Pair{Key: uint32(i * 3), Ref: uint32(i)}
	}
	tr := Build(ps, Config{Fanout: 4, LeafSize: 4})
	for d := 0; d <= tr.InnerDepth(); d++ {
		var bounds []uint32
		if d == tr.InnerDepth() {
			continue
		}
		bounds = tr.SubtreeBounds(d)
		if len(bounds) != tr.NodesAtDepth(d) {
			t.Fatalf("depth %d: %d bounds for %d nodes", d, len(bounds), tr.NodesAtDepth(d))
		}
		if bounds[len(bounds)-1] != ^uint32(0) {
			t.Fatalf("depth %d: last bound %d, want MaxUint32", d, bounds[len(bounds)-1])
		}
		// Every key must route to a node whose bound is >= key and whose
		// predecessor's bound is < key.
		for _, p := range ps {
			ord := tr.RouteToDepth(p.Key, d)
			if bounds[ord] < p.Key {
				t.Fatalf("depth %d: key %d routed to node %d with bound %d", d, p.Key, ord, bounds[ord])
			}
		}
	}
}

func TestCheckInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 50, 1023, 1024, 1025} {
		ps := sortedPairs(n, int64(n)+9, 300)
		tr := Build(ps, Config{Fanout: 4, LeafSize: 4})
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestMemory(t *testing.T) {
	ps := sortedPairs(10000, 6, 1<<30)
	tr := Build(ps, Config{})
	m := tr.Memory()
	if m.LeafBytes < 10000*kv.PairBytes {
		t.Fatalf("LeafBytes = %d, below payload", m.LeafBytes)
	}
	if m.InnerBytes <= 0 {
		t.Fatal("InnerBytes should be positive")
	}
	// The directory should be far smaller than the data (the CSS advantage).
	if m.InnerBytes > m.LeafBytes/4 {
		t.Fatalf("InnerBytes %d too large relative to LeafBytes %d", m.InnerBytes, m.LeafBytes)
	}
}

func TestHigherFanoutShallower(t *testing.T) {
	ps := sortedPairs(1<<15, 7, 1<<30)
	shallow := Build(ps, Config{Fanout: 64, LeafSize: 32})
	deep := Build(ps, Config{Fanout: 4, LeafSize: 32})
	if shallow.InnerDepth() >= deep.InnerDepth() {
		t.Fatalf("fanout 64 depth %d not shallower than fanout 4 depth %d",
			shallow.InnerDepth(), deep.InnerDepth())
	}
}

func TestDuplicateKeysLowerBoundFirst(t *testing.T) {
	ps := make([]kv.Pair, 0, 300)
	for i := 0; i < 100; i++ {
		for r := 0; r < 3; r++ {
			ps = append(ps, kv.Pair{Key: uint32(i * 2), Ref: uint32(r)})
		}
	}
	tr := Build(ps, Config{Fanout: 4, LeafSize: 4})
	for i := 0; i < 100; i++ {
		key := uint32(i * 2)
		lb := tr.LowerBound(key)
		if tr.Leaves()[lb] != (kv.Pair{Key: key, Ref: 0}) {
			t.Fatalf("LowerBound(%d) landed on %v, want first duplicate", key, tr.Leaves()[lb])
		}
	}
}

// Property: LowerBound agrees with binary search on arbitrary inputs and
// geometries.
func TestQuickLowerBound(t *testing.T) {
	f := func(keys []uint32, probe uint32, fanout, leafSize uint8) bool {
		fo := int(fanout%16) + 2
		ls := int(leafSize%16) + 2
		ps := make([]kv.Pair, len(keys))
		for i, k := range keys {
			ps[i] = kv.Pair{Key: k % 4096, Ref: uint32(i)}
		}
		kv.Sort(ps)
		tr := Build(ps, Config{Fanout: fo, LeafSize: ls})
		probe %= 4200
		return tr.LowerBound(probe) == kv.LowerBound(ps, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLowerBound(b *testing.B) {
	ps := make([]kv.Pair, 1<<18)
	for i := range ps {
		ps[i] = kv.Pair{Key: uint32(i), Ref: uint32(i)}
	}
	tr := Build(ps, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LowerBound(uint32(i) % (1 << 18))
	}
}

func BenchmarkBuild(b *testing.B) {
	ps := make([]kv.Pair, 1<<16)
	for i := range ps {
		ps[i] = kv.Pair{Key: uint32(i), Ref: uint32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ps, Config{})
	}
}

// routeRef is an independent directory walk to depth d: at each level take
// the first child whose routing key is >= key, clamped to the nodes that
// exist below. The fused walks must report the same ordinal.
func routeRef(t *Tree, key uint32, d int) int {
	if d > len(t.counts) {
		d = len(t.counts)
	}
	p := 0
	for i := 0; i < d; i++ {
		k := 0
		for k < t.sib && key > t.inners[t.offsets[i]+p*t.sib+k] {
			k++
		}
		p = p*t.fanout + k
		below := (len(t.leaves)+t.leafSize-1)/t.leafSize - 1
		if i+1 < len(t.counts) {
			below = t.counts[i+1] - 1
		}
		if p > below {
			p = below
		}
	}
	return p
}

// The fused walk: for random trees (ragged right edge, single leaf with no
// directory, empty) and random ranges, every *Via entry point reports the
// depth-d ordinal RouteToDepth would, and emits exactly the slice the
// binary-searched bounds select — including hi = MaxUint32 and ranges that
// run off the end of the leaves.
func TestViaWalksMatchSeparateDescents(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfgs := []Config{{}, {Fanout: 2, LeafSize: 2}, {Fanout: 3, LeafSize: 5}, {Fanout: 4, LeafSize: 4}}
	sizes := []int{0, 1, 7, 32, 33, 100, 1000, 1025, 4099}
	for _, cfg := range cfgs {
		for _, n := range sizes {
			keySpace := uint32(4 * (n + 1))
			ps := sortedPairs(n, int64(n)+int64(cfg.Fanout), keySpace)
			if n > 1 && rng.Intn(2) == 0 {
				ps[n-1].Key = maxKey // a stored MaxUint32 key
			}
			tr := Build(ps, cfg)
			for q := 0; q < 300; q++ {
				lo := rng.Uint32() % (keySpace + 8)
				hi := lo + rng.Uint32()%16
				switch rng.Intn(8) {
				case 0:
					hi = maxKey
				case 1:
					lo, hi = 0, maxKey
				case 2:
					lo, hi = maxKey, maxKey
				case 3:
					hi = lo - 1 // empty range (wraps to MaxUint32 at lo == 0)
					if lo == 0 {
						hi = 0
					}
				}
				d := rng.Intn(tr.InnerDepth() + 3) // past the directory too
				wantOrd := routeRef(tr, lo, d)
				if got := tr.RouteToDepth(lo, d); got != wantOrd {
					t.Fatalf("n %d cfg %+v: RouteToDepth(%d, %d) = %d, reference %d", n, cfg, lo, d, got, wantOrd)
				}
				wantLo := kv.LowerBound(ps, lo)
				want := ps[wantLo:wantLo]
				if hi >= lo {
					want = ps[wantLo:kv.UpperBound(ps, hi)]
				}

				if i, ord := tr.LowerBoundVia(lo, d); i != wantLo || ord != wantOrd {
					t.Fatalf("n %d cfg %+v: LowerBoundVia(%d, %d) = (%d, %d), want (%d, %d)", n, cfg, lo, d, i, ord, wantLo, wantOrd)
				}

				var got []kv.Pair
				calls := 0
				ord, stopped := tr.QueryPairsVia(lo, hi, d, func(run []kv.Pair) bool {
					calls++
					got = append(got, run...)
					return true
				})
				if ord != wantOrd || stopped || calls > 1 || (calls == 1) != (len(want) > 0) {
					t.Fatalf("n %d cfg %+v: QueryPairsVia(%d, %d, %d) ord %d stopped %v calls %d, want ord %d over %d elements",
						n, cfg, lo, hi, d, ord, stopped, calls, wantOrd, len(want))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n %d cfg %+v: QueryPairsVia(%d, %d) emitted %v, want %v", n, cfg, lo, hi, got, want)
				}
				if len(want) > 0 {
					if ord, stopped := tr.QueryPairsVia(lo, hi, d, func([]kv.Pair) bool { return false }); !stopped || ord != wantOrd {
						t.Fatalf("QueryPairsVia refusal: ord %d stopped %v, want ord %d stopped", ord, stopped, wantOrd)
					}
				}
			}
		}
	}
}

var (
	lowerBoundsGeometries = []Config{{Fanout: 32, LeafSize: 32}, {Fanout: 2, LeafSize: 2}, {Fanout: 5, LeafSize: 3}}
	lowerBoundsSizes      = []int{0, 1, 31, 32, 33, 1000, 4099, 1<<17 + 5}
)

// lowerBoundsCases are the trees the batched descent is checked on: empty,
// single-element, around one leaf's edge, ragged right edges and one deep
// tree, in the default, narrowest and odd geometries, with duplicate keys
// and stored 0 and MaxUint32 keys.
func lowerBoundsCases() (trees []*Tree, names []string) {
	for _, cfg := range lowerBoundsGeometries {
		for _, n := range lowerBoundsSizes {
			ps := sortedPairs(n, int64(n)+int64(cfg.Fanout), uint32(n/4+1)) // ~4 duplicates a key
			if n > 2 {
				ps[0].Key, ps[n-1].Key = 0, maxKey
			}
			trees = append(trees, Build(ps, cfg))
			names = append(names, fmt.Sprintf("n %d cfg %+v", n, cfg))
		}
	}
	return trees, names
}

// checkLowerBounds asserts the LowerBounds contract for keys at every depth
// from the root to past the directory, with positions for all, some or none
// of the keys.
func checkLowerBounds(t *testing.T, tr *Tree, name string, keys []uint32) {
	t.Helper()
	pos, ords := make([]int, len(keys)), make([]int, len(keys))
	for d := 0; d <= tr.InnerDepth()+1; d++ {
		for _, np := range []int{len(keys), len(keys) / 3, 0} {
			checkLowerBoundsAt(t, tr, name, keys, d, pos[:np], ords)
		}
	}
}

func checkLowerBoundsAt(t *testing.T, tr *Tree, name string, keys []uint32, d int, pos, ords []int) {
	t.Helper()
	for j := range pos {
		pos[j] = -1
	}
	tr.LowerBounds(keys, d, pos, ords)
	for j, k := range keys {
		i, ord := tr.LowerBoundVia(k, d)
		if j < len(pos) && pos[j] != i {
			t.Fatalf("%s: LowerBounds key %d (#%d of %d, %d positioned) at depth %d: position %d, LowerBoundVia %d",
				name, k, j, len(keys), len(pos), d, pos[j], i)
		}
		if ords[j] != ord {
			t.Fatalf("%s: LowerBounds key %d (#%d of %d, %d positioned) at depth %d: ordinal %d, LowerBoundVia %d",
				name, k, j, len(keys), len(pos), d, ords[j], ord)
		}
	}
}

func TestLowerBoundsMatchesLowerBoundVia(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	trees, names := lowerBoundsCases()
	for c, tr := range trees {
		top := uint32(tr.Len()/4 + 8)
		// Batch lengths around the lockstep group: empty, partial, exact,
		// one over, and several groups.
		for _, m := range []int{0, 1, lockstep - 1, lockstep, lockstep + 1, 5*lockstep + 3} {
			keys := make([]uint32, m)
			for j := range keys {
				switch rng.Intn(6) {
				case 0:
					keys[j] = 0
				case 1:
					keys[j] = maxKey
				default:
					keys[j] = rng.Uint32() % top
				}
			}
			checkLowerBounds(t, tr, names[c], keys)
		}
	}
}

// FuzzLowerBounds cross-checks the batched descent against the per-key one
// for arbitrary geometry, content and keys.
func FuzzLowerBounds(f *testing.F) {
	// Seeds: the table's geometries and sizes up to a few leaves' worth,
	// with a group and a half of probes.
	rng := rand.New(rand.NewSource(38))
	for _, cfg := range lowerBoundsGeometries {
		for _, n := range lowerBoundsSizes {
			if n > 1000 {
				continue
			}
			raw, probes := make([]byte, n), make([]byte, lockstep+lockstep/2)
			rng.Read(raw)
			rng.Read(probes)
			f.Add(raw, probes, uint8(cfg.Fanout-2), uint8(cfg.LeafSize-2), uint8(n))
		}
	}
	f.Fuzz(func(t *testing.T, raw, probes []byte, fo, ls, d uint8) {
		cfg := Config{Fanout: int(fo%40) + 2, LeafSize: int(ls%40) + 2}
		ps := make([]kv.Pair, len(raw))
		for i, b := range raw {
			ps[i] = kv.Pair{Key: uint32(b) << 24, Ref: uint32(i)}
		}
		kv.Sort(ps)
		tr := Build(ps, cfg)
		keys := make([]uint32, len(probes))
		for j, b := range probes {
			keys[j] = uint32(b)<<24 | uint32(b)
		}
		pos, ords := make([]int, len(keys)), make([]int, len(keys))
		depth := int(d) % (tr.InnerDepth() + 2)
		np := len(keys) - int(d)%(len(keys)+1) // positions for a prefix of the keys
		checkLowerBoundsAt(t, tr, fmt.Sprintf("cfg %+v", cfg), keys, depth, pos[:np], ords)
	})
}

var benchPos int // keeps the per-key benchmark's result alive

// BenchmarkLowerBounds compares the per-key descent with the batched one on
// uniform keys, per key, at a cache-resident, an L2-sized and a
// memory-resident tree.
func BenchmarkLowerBounds(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		ps := sortedPairs(n, 1, math.MaxUint32)
		tr := Build(ps, Config{})
		rng := rand.New(rand.NewSource(2))
		keys := make([]uint32, 1<<16)
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		const batch, d = 128, 2 // PIM-Tree's chunk and default insertion depth
		pos, ords := make([]int, batch), make([]int, batch)
		b.Run(fmt.Sprintf("n=%d/per-key", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchPos, _ = tr.LowerBoundVia(keys[i%len(keys)], d)
			}
		})
		b.Run(fmt.Sprintf("n=%d/lockstep", n), func(b *testing.B) {
			for i := 0; i < b.N; i += batch {
				at := i % len(keys)
				tr.LowerBounds(keys[at:at+batch], d, pos, ords)
			}
		})
	}
}
