package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pimtree/internal/cstree"
	"pimtree/internal/kv"
)

func pair(k, r uint32) kv.Pair { return kv.Pair{Key: k, Ref: r} }

func alwaysLive(kv.Pair) bool { return true }

// runQuerier is the run walk query drives: PIMTree's and SharedPIMTree's.
type runQuerier interface {
	QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool)
}

// query collects QueryPairs(lo, hi), reporting an empty run or a refusal no
// run made with t.Errorf, so concurrent readers can call it too.
func query(t testing.TB, q runQuerier, lo, hi uint32) []kv.Pair {
	var out []kv.Pair
	if q.QueryPairs(lo, hi, func(run []kv.Pair) bool {
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

// checkRange reports, with t.Errorf, an element of got outside [lo, hi].
func checkRange(t testing.TB, got []kv.Pair, lo, hi uint32) {
	for _, p := range got {
		if p.Key < lo || p.Key > hi {
			t.Errorf("out-of-range result %v for [%d,%d]", p, lo, hi)
			return
		}
	}
}

// --- IM-Tree ---

func TestIMTreeInsertQuery(t *testing.T) {
	im := NewIMTree(1024, PIMTreeConfig{MergeRatio: 0.25})
	for i := uint32(0); i < 200; i++ {
		im.Insert(pair(i*5, i))
	}
	got := query(t, im, 100, 200)
	want := 0
	for i := uint32(0); i < 200; i++ {
		if i*5 >= 100 && i*5 <= 200 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("QueryPairs returned %d, want %d", len(got), want)
	}
}

func TestIMTreeMergeMovesTItoTS(t *testing.T) {
	im := NewIMTree(1000, PIMTreeConfig{MergeRatio: 0.1})
	if im.MergeThreshold() != 100 {
		t.Fatalf("threshold = %d, want 100", im.MergeThreshold())
	}
	for i := uint32(0); i < 100; i++ {
		im.Insert(pair(i, i))
	}
	if !im.NeedsMerge() {
		t.Fatal("NeedsMerge should be true at threshold")
	}
	im.MergeInPlace(alwaysLive)
	if im.TILen() != 0 {
		t.Fatalf("TI len = %d after merge, want 0", im.TILen())
	}
	if im.TSLen() != 100 {
		t.Fatalf("TS len = %d after merge, want 100", im.TSLen())
	}
	// Content still queryable.
	if n := len(query(t, im, 0, 99)); n != 100 {
		t.Fatalf("post-merge query found %d, want 100", n)
	}
	if merges, d := im.Merges(); merges != 1 || d <= 0 {
		t.Fatalf("Merges() = %d,%v", merges, d)
	}
}

func TestIMTreeMergeDiscardsExpired(t *testing.T) {
	im := NewIMTree(100, PIMTreeConfig{MergeRatio: 1})
	for i := uint32(0); i < 100; i++ {
		im.Insert(pair(i, i))
	}
	im.MergeInPlace(func(p kv.Pair) bool { return p.Ref >= 50 })
	if im.TSLen() != 50 {
		t.Fatalf("TS len = %d after filtered merge, want 50", im.TSLen())
	}
	for _, p := range query(t, im, 0, 1000) {
		if p.Ref < 50 {
			t.Fatalf("expired element %v survived merge", p)
		}
	}
}

func TestIMTreeRepeatedMergesPreserveContent(t *testing.T) {
	im := NewIMTree(512, PIMTreeConfig{MergeRatio: 0.125})
	live := map[kv.Pair]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := pair(rng.Uint32()%5000, uint32(i))
		im.Insert(p)
		live[p] = true
		if im.NeedsMerge() {
			im.MergeInPlace(alwaysLive)
		}
	}
	if im.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", im.Len(), len(live))
	}
	got := query(t, im, 0, ^uint32(0))
	for _, p := range got {
		if !live[p] {
			t.Fatalf("unknown element %v", p)
		}
	}
	if len(got) != len(live) {
		t.Fatalf("query found %d, want %d", len(got), len(live))
	}
}

func TestIMTreeMemory(t *testing.T) {
	im := NewIMTree(1000, PIMTreeConfig{MergeRatio: 0.5})
	for i := uint32(0); i < 600; i++ {
		im.Insert(pair(i, i))
		if im.NeedsMerge() {
			im.MergeInPlace(alwaysLive)
		}
	}
	m := im.Memory()
	if m.TSLeafBytes <= 0 || m.TIBytes <= 0 || m.BufferBytes <= 0 {
		t.Fatalf("memory stats missing components: %+v", m)
	}
}

func TestIMTreeInvalidConfig(t *testing.T) {
	for _, fn := range []func(){
		func() { NewIMTree(0, PIMTreeConfig{}) },
		func() { NewIMTree(10, PIMTreeConfig{MergeRatio: -1}) },
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

// --- PIM-Tree ---

func TestPIMTreeBootstrap(t *testing.T) {
	pt := NewPIMTree(1024, PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2})
	if pt.Subindexes() != 1 {
		t.Fatalf("empty tree has %d subindexes, want 1", pt.Subindexes())
	}
	for i := uint32(0); i < 100; i++ {
		pt.Insert(pair(i*37%1000, i))
	}
	if pt.TILen() != 100 {
		t.Fatalf("TILen = %d, want 100", pt.TILen())
	}
	if n := len(query(t, pt, 0, 2000)); n != 100 {
		t.Fatalf("query found %d, want 100", n)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSurvivorsSizesTS: a survivor count sizes the merged TS exactly,
// and a short one only makes the merge grow its run — both trees, same
// contents.
func TestMergeSurvivorsSizesTS(t *testing.T) {
	const w, keep = 1024, 300
	live := func(p kv.Pair) bool { return p.Ref < keep }
	for _, hint := range []int{keep, 10} {
		pt := NewPIMTree(w, PIMTreeConfig{MergeRatio: 1})
		im := NewIMTree(w, PIMTreeConfig{MergeRatio: 1})
		for i := uint32(0); i < w; i++ {
			pt.Insert(pair(i*7919%w, i))
			im.Insert(pair(i*7919%w, i))
		}
		pt.MergeInPlace(live, hint)
		im.MergeInPlace(live, hint)
		if pt.TSLen() != keep || im.TSLen() != keep {
			t.Fatalf("hint %d: TS holds %d / %d, want %d", hint, pt.TSLen(), im.TSLen(), keep)
		}
		if hint == keep && (pt.Memory().BufferBytes != keep*kv.PairBytes || im.Memory().BufferBytes != keep*kv.PairBytes) {
			t.Fatalf("exact hint: merge buffers %d / %d B, want %d", pt.Memory().BufferBytes, im.Memory().BufferBytes, keep*kv.PairBytes)
		}
		if err := pt.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPIMTreePartitionsAfterMerge(t *testing.T) {
	w := 4096
	pt := NewPIMTree(w, PIMTreeConfig{
		MergeRatio:     1,
		InsertionDepth: 2,
		CSTree:         cstree.Config{Fanout: 4, LeafSize: 4},
	})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32()%100000, uint32(i)))
	}
	pt.MergeInPlace(alwaysLive)
	if pt.Subindexes() < 2 {
		t.Fatalf("after merge, %d subindexes; want multiple at DI=2", pt.Subindexes())
	}
	if pt.TSLen() != w {
		t.Fatalf("TSLen = %d, want %d", pt.TSLen(), w)
	}
	// Subsequent inserts must route into partitions consistently.
	for i := 0; i < 2000; i++ {
		pt.Insert(pair(rng.Uint32()%100000, uint32(w+i)))
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, sub := range pt.subs {
		if sub.Len() > 0 {
			nonZero++
		}
	}
	if nonZero < 2 {
		t.Fatalf("inserts concentrated in %d subindex(es)", nonZero)
	}
}

func TestPIMTreeQueryMatchesReferenceAcrossMerges(t *testing.T) {
	w := 1024
	pt := NewPIMTree(w, PIMTreeConfig{
		MergeRatio:     0.25,
		InsertionDepth: 2,
		CSTree:         cstree.Config{Fanout: 4, LeafSize: 4},
	})
	ref := []kv.Pair{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		p := pair(rng.Uint32()%8192, uint32(i))
		pt.Insert(p)
		ref = append(ref, p)
		if pt.NeedsMerge() {
			pt.MergeInPlace(alwaysLive)
		}
	}
	kv.Sort(ref)
	for trial := 0; trial < 50; trial++ {
		lo := uint32(trial * 151 % 8192)
		hi := lo + uint32(trial%300)
		want := map[kv.Pair]int{}
		wantN := 0
		for _, p := range ref {
			if p.Key >= lo && p.Key <= hi {
				want[p]++
				wantN++
			}
		}
		got := query(t, pt, lo, hi)
		for _, p := range got {
			if want[p] == 0 {
				t.Fatalf("QueryPairs(%d,%d) unexpected element %v", lo, hi, p)
			}
			want[p]--
		}
		if len(got) != wantN {
			t.Fatalf("QueryPairs(%d,%d) = %d elems, want %d", lo, hi, len(got), wantN)
		}
	}
}

// QueryPairs takes lo's subindex from the TS descent instead of routing lo
// again, and stops its TI walk at a partition bound; after random inserts
// and merges it, and the per-element Query over it, must still emit exactly
// what TS's run and every subindex's own range hold together.
func TestPIMTreeFusedQueryEqualsTSPlusTI(t *testing.T) {
	const keySpace = 1 << 14
	for _, cfg := range []PIMTreeConfig{
		{MergeRatio: 0.25, InsertionDepth: 1, CSTree: cstree.Config{Fanout: 4, LeafSize: 4}},
		{MergeRatio: 0.5, InsertionDepth: 2, CSTree: cstree.Config{Fanout: 3, LeafSize: 5}},
		{MergeRatio: 1, InsertionDepth: 3, CSTree: cstree.Config{Fanout: 2, LeafSize: 2}},
		{}, // default geometry: TS fits one leaf run for a while
	} {
		rng := rand.New(rand.NewSource(int64(cfg.InsertionDepth) + 40))
		pt := NewPIMTree(512, cfg)
		for i := 0; i < 4000; i++ {
			pt.Insert(pair(rng.Uint32()%keySpace, uint32(i)))
			if pt.NeedsMerge() {
				oldest := uint32(i) - uint32(rng.Intn(600))
				pt.MergeInPlace(func(p kv.Pair) bool { return int32(p.Ref-oldest) >= 0 })
			}
			if i%7 != 0 {
				continue
			}
			lo := rng.Uint32() % keySpace
			hi := lo + rng.Uint32()%64
			switch rng.Intn(6) {
			case 0:
				hi = ^uint32(0)
			case 1:
				hi = lo + keySpace/3 // crosses several subindexes
			case 2:
				lo, hi = 0, ^uint32(0)
			}
			var want, got []kv.Pair
			appendRun := func(run []kv.Pair) bool { want = append(want, run...); return true }
			pt.ts.QueryPairs(lo, hi, appendRun)
			for _, sub := range pt.subs {
				sub.QueryPairs(lo, hi, appendRun)
			}
			pt.Query(lo, hi, func(p kv.Pair) bool { got = append(got, p); return true })
			gotPairs := query(t, pt, lo, hi)
			for _, ps := range [][]kv.Pair{want, got, gotPairs} {
				kv.Sort(ps)
			}
			if !slices.Equal(got, want) || !slices.Equal(gotPairs, want) {
				t.Fatalf("cfg %+v step %d [%d, %d]: Query %d / QueryPairs %d elements, TS+TI %d",
					cfg, i, lo, hi, len(got), len(gotPairs), len(want))
			}
		}
		if merges, _ := pt.Merges(); merges < 3 {
			t.Fatalf("cfg %+v: only %d merges exercised", cfg, merges)
		}
	}
}

// The located path against the plain one on the same tree: batches of
// queries and inserts are located together, then applied in order while
// merges replace TS mid-batch. While the token is current a located query
// must emit exactly what QueryPairs does and a located insert must land in
// the subindex Insert would pick; once a merge has run the token must read
// stale.
func TestPIMTreeLocatedMatchesPlain(t *testing.T) {
	const keySpace = 1 << 14
	for _, cfg := range []PIMTreeConfig{
		{MergeRatio: 0.25, InsertionDepth: 1, CSTree: cstree.Config{Fanout: 4, LeafSize: 4}},
		{MergeRatio: 1, InsertionDepth: 3, CSTree: cstree.Config{Fanout: 2, LeafSize: 2}},
		{},
	} {
		rng := rand.New(rand.NewSource(38))
		pt := NewPIMTree(512, cfg)
		type query struct{ lo, hi uint32 }
		var located, stale int
		for i := uint32(0); i < 6000; {
			// A batch: its queries' lo bounds first, then its inserts' keys.
			var qs []query
			var ins []uint32
			for j := rng.Intn(60); j >= 0; j-- {
				lo := rng.Uint32() % keySpace
				qs = append(qs, query{lo, lo + rng.Uint32()%(keySpace/4)})
				ins = append(ins, rng.Uint32()%keySpace)
			}
			keys := make([]uint32, 0, len(qs)+len(ins))
			for _, q := range qs {
				keys = append(keys, q.lo)
			}
			keys = append(keys, ins...)
			pos, ords := make([]int, len(qs)), make([]int, len(keys))
			tok := pt.Locate(keys, pos, ords)
			for j, q := range qs {
				var want, got []kv.Pair
				pt.QueryPairs(q.lo, q.hi, func(run []kv.Pair) bool { want = append(want, run...); return true })
				if pt.Current(tok) {
					located++
					pt.QueryPairsAt(q.lo, q.hi, pos[j], ords[j], func(run []kv.Pair) bool { got = append(got, run...); return true })
					if !slices.Equal(got, want) {
						t.Fatalf("cfg %+v: located query [%d, %d] emitted %d elements, QueryPairs %d", cfg, q.lo, q.hi, len(got), len(want))
					}
				} else {
					stale++
				}
				p := pair(ins[j], i)
				i++
				if ord := ords[len(qs)+j]; pt.Current(tok) {
					if want := pt.route(p.Key); ord != want {
						t.Fatalf("cfg %+v: key %d located in subindex %d, routes to %d", cfg, p.Key, ord, want)
					}
					pt.InsertAt(p, ord)
				} else {
					pt.Insert(p)
				}
				if pt.NeedsMerge() {
					oldest := i - uint32(rng.Intn(600))
					pt.MergeInPlace(func(p kv.Pair) bool { return int32(p.Ref-oldest) >= 0 })
					if pt.Current(tok) {
						t.Fatalf("cfg %+v: token still current after a merge", cfg)
					}
				}
			}
			if err := pt.CheckInvariants(); err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
		}
		if located == 0 || stale == 0 {
			t.Fatalf("cfg %+v: %d located and %d stale queries; want both paths exercised", cfg, located, stale)
		}
	}
}

// A token names one TS, not a tree's count of merges: a tree built in
// another's place, even from the same content, does not accept it.
func TestPIMTreeTokenIsTSIdentity(t *testing.T) {
	a := NewPIMTree(64, PIMTreeConfig{})
	keys, pos, ords := []uint32{7}, make([]int, 1), make([]int, 1)
	tok := a.Locate(keys, pos, ords)
	if !a.Current(tok) {
		t.Fatal("a fresh token is not current on its own tree")
	}
	if NewPIMTree(64, PIMTreeConfig{}).Current(tok) {
		t.Fatal("a new empty tree accepts another tree's token")
	}
	b, _ := a.BuildMerged(alwaysLive)
	if b.Current(tok) || !a.Current(tok) {
		t.Fatal("BuildMerged moved the token: the new tree accepts it or the old one stopped")
	}
	a.MergeInPlace(alwaysLive)
	if a.Current(tok) {
		t.Fatal("token still current after MergeInPlace")
	}
}

func TestPIMTreeMergeDiscardsExpired(t *testing.T) {
	pt := NewPIMTree(100, PIMTreeConfig{MergeRatio: 1})
	for i := uint32(0); i < 100; i++ {
		pt.Insert(pair(i, i))
	}
	pt.MergeInPlace(func(p kv.Pair) bool { return p.Ref%2 == 0 })
	if pt.TSLen() != 50 {
		t.Fatalf("TSLen = %d, want 50", pt.TSLen())
	}
}

func TestPIMTreeBuildMergedLeavesOldIntact(t *testing.T) {
	pt := NewPIMTree(256, PIMTreeConfig{MergeRatio: 1})
	for i := uint32(0); i < 256; i++ {
		pt.Insert(pair(i, i))
	}
	oldTI := pt.TILen()
	nt, d := pt.BuildMerged(alwaysLive)
	if d <= 0 {
		t.Fatal("merge duration not measured")
	}
	if pt.TILen() != oldTI {
		t.Fatal("BuildMerged mutated the source tree")
	}
	if nt.TSLen() != 256 || nt.TILen() != 0 {
		t.Fatalf("new tree TS=%d TI=%d, want 256/0", nt.TSLen(), nt.TILen())
	}
	if merges, _ := nt.Merges(); merges != 1 {
		t.Fatalf("new tree merges = %d, want 1", merges)
	}
}

func TestPIMTreeEffectiveDIClamped(t *testing.T) {
	// A tiny TS cannot support a deep insertion depth; DI must clamp.
	pt := NewPIMTree(64, PIMTreeConfig{
		MergeRatio:     1,
		InsertionDepth: 4,
		CSTree:         cstree.Config{Fanout: 4, LeafSize: 4},
	})
	for i := uint32(0); i < 64; i++ {
		pt.Insert(pair(i*100, i))
	}
	pt.MergeInPlace(alwaysLive)
	if pt.EffectiveDI() > pt.tsInnerDepth()-1 {
		t.Fatalf("effective DI %d exceeds inner depth %d", pt.EffectiveDI(), pt.tsInnerDepth())
	}
	if pt.Subindexes() != len(pt.bounds) {
		t.Fatalf("subindexes %d != bounds %d", pt.Subindexes(), len(pt.bounds))
	}
}

func (t *PIMTree) tsInnerDepth() int { return t.ts.InnerDepth() }

func TestPIMTreeDeepDIMoreSubindexes(t *testing.T) {
	w := 8192
	mk := func(di int) *PIMTree {
		pt := NewPIMTree(w, PIMTreeConfig{
			MergeRatio:     1,
			InsertionDepth: di,
			CSTree:         cstree.Config{Fanout: 4, LeafSize: 4},
		})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < w; i++ {
			pt.Insert(pair(rng.Uint32(), uint32(i)))
		}
		pt.MergeInPlace(alwaysLive)
		return pt
	}
	if s1, s3 := mk(1).Subindexes(), mk(3).Subindexes(); s3 <= s1 {
		t.Fatalf("DI=3 gives %d subindexes, DI=1 gives %d; want more at deeper DI", s3, s1)
	}
}

func TestPIMTreeConcurrentInsertQuery(t *testing.T) {
	w := 1 << 13
	pt := NewSharedPIMTree(w, PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2}, false)
	// Prime and merge so multiple partitions exist.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32()%1000000, uint32(i)))
	}
	pt.MergeInPlace(alwaysLive)

	var wg sync.WaitGroup
	const writers, readers = 4, 4
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 3000; i++ {
				pt.Insert(pair(rng.Uint32()%1000000, uint32(g<<20|i)))
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for i := 0; i < 2000; i++ {
				lo := rng.Uint32() % 1000000
				checkRange(t, query(t, pt, lo, lo+5000), lo, lo+5000)
			}
		}(g)
	}
	wg.Wait()
	if got := pt.settled().TILen(); got != writers*3000 {
		t.Fatalf("TILen = %d, want %d", got, writers*3000)
	}
	if err := pt.settled().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPIMTreeSingleLockAblation(t *testing.T) {
	pt := NewSharedPIMTree(1024, PIMTreeConfig{MergeRatio: 1}, true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 1000; i++ {
				pt.Insert(pair(rng.Uint32()%10000, uint32(g<<16|i)))
			}
		}(g)
	}
	wg.Wait()
	if n := pt.settled().Len(); n != 4000 {
		t.Fatalf("Len = %d, want 4000", n)
	}
	if n := len(query(t, pt, 0, 20000)); n != 4000 {
		t.Fatalf("query found %d, want 4000", n)
	}
}

func TestPIMTreeQueryEarlyStop(t *testing.T) {
	pt := NewPIMTree(512, PIMTreeConfig{MergeRatio: 0.5})
	for i := uint32(0); i < 512; i++ {
		pt.Insert(pair(i, i))
		if pt.NeedsMerge() {
			pt.MergeInPlace(alwaysLive)
		}
	}
	n, calls, refused := 0, 0, false
	stopped := pt.QueryPairs(0, 511, func(run []kv.Pair) bool {
		if refused {
			t.Fatal("emit called after it refused a run")
		}
		calls++
		n += len(run)
		refused = n >= 7
		return !refused
	})
	if !stopped || calls == 0 {
		t.Fatalf("early stop: stopped %v after %d runs", stopped, calls)
	}
	// The per-element adapter stops at exactly the refusing element.
	n = 0
	pt.Query(0, 511, func(kv.Pair) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop emitted %d, want 7", n)
	}
}

// TestPIMTreeReportsRefusalInTI accepts TS's run and refuses the first TI
// run, for ranges that end inside a TI leaf: every form of the two-stage
// tree must report the refusal and call emit no more.
func TestPIMTreeReportsRefusalInTI(t *testing.T) {
	const w = 1024
	cfg := PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2, CSTree: cstree.Config{Fanout: 4, LeafSize: 4}}
	// Even keys go to TS, odd ones stay in TI.
	fill := func(insert func(kv.Pair), merge func(func(kv.Pair) bool, ...int) time.Duration) {
		for i := uint32(0); i < 512; i++ {
			insert(pair(2*i, i))
		}
		merge(alwaysLive)
		for i := uint32(0); i < 256; i++ {
			insert(pair(2*i+1, 512+i))
		}
	}
	pt, im, sh := NewPIMTree(w, cfg), NewIMTree(w, cfg), NewSharedPIMTree(w, cfg, false)
	fill(pt.Insert, pt.MergeInPlace)
	fill(im.Insert, im.MergeInPlace)
	fill(sh.Insert, sh.MergeInPlace)
	if pt.Subindexes() < 2 || im.Subindexes() != 1 {
		t.Fatalf("PIM-Tree has %d subindexes, IM-Tree %d: want several and one", pt.Subindexes(), im.Subindexes())
	}
	for name, q := range map[string]runQuerier{"PIMTree": pt, "IMTree": im, "SharedPIMTree": sh} {
		for lo := uint32(0); lo < 500; lo += 7 {
			calls := 0
			stopped := q.QueryPairs(lo, lo+6, func([]kv.Pair) bool {
				calls++
				return calls < 2 // the TS run, then the first TI run
			})
			if !stopped || calls != 2 {
				t.Fatalf("%s: [%d, %d] refusing the first TI run: stopped %v after %d emit calls, want stopped after 2",
					name, lo, lo+6, stopped, calls)
			}
		}
	}
}

func TestPIMTreeInsertCountsReset(t *testing.T) {
	pt := NewSharedPIMTree(128, PIMTreeConfig{MergeRatio: 1}, false)
	for i := uint32(0); i < 50; i++ {
		pt.Insert(pair(i, i))
	}
	total := int64(0)
	for _, c := range pt.InsertCounts() {
		total += c
	}
	if total != 50 {
		t.Fatalf("insert counts total %d, want 50", total)
	}
	pt.ResetInsertCounts()
	for _, c := range pt.InsertCounts() {
		if c != 0 {
			t.Fatal("counts survive reset")
		}
	}
}

// Property: IM-Tree and PIM-Tree agree with each other and with a sorted
// reference under random inserts, merges, and range queries. Both get the
// same config, InsertionDepth included: the IM-Tree keeps one subindex at
// depth 0 where the PIM-Tree splits TI.
func TestQuickTwoStageAgreement(t *testing.T) {
	split := false
	f := func(keys []uint16, loRaw, hiRaw uint16, mRaw uint8) bool {
		if len(keys) == 0 {
			return true
		}
		m := float64(mRaw%9+1) / 10
		lo, hi := uint32(loRaw%3000), uint32(hiRaw%3000)
		if lo > hi {
			lo, hi = hi, lo
		}
		w := 256
		cfg := PIMTreeConfig{MergeRatio: m, InsertionDepth: 2, CSTree: cstree.Config{Fanout: 4, LeafSize: 4}}
		im := NewIMTree(w, cfg)
		pt := NewPIMTree(w, cfg)
		ref := []kv.Pair{}
		for i, k := range keys {
			p := pair(uint32(k%3000), uint32(i))
			im.Insert(p)
			pt.Insert(p)
			ref = append(ref, p)
			if im.NeedsMerge() {
				im.MergeInPlace(alwaysLive)
			}
			if pt.NeedsMerge() {
				pt.MergeInPlace(alwaysLive)
			}
		}
		want := 0
		for _, p := range ref {
			if p.Key >= lo && p.Key <= hi {
				want++
			}
		}
		gotIM, gotPT := len(query(t, im, lo, hi)), len(query(t, pt, lo, hi))
		split = split || pt.Subindexes() > 1
		return gotIM == want && gotPT == want && im.Subindexes() == 1 && im.EffectiveDI() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if !split {
		t.Fatal("no input split the PIM-Tree's TI, so the IM-Tree's single subindex was never contrasted")
	}
}

func BenchmarkPIMTreeInsert(b *testing.B) {
	pt := NewPIMTree(1<<16, PIMTreeConfig{MergeRatio: 1})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Insert(pair(rng.Uint32(), uint32(i)))
		if pt.NeedsMerge() {
			b.StopTimer()
			pt.MergeInPlace(alwaysLive)
			b.StartTimer()
		}
	}
}

func BenchmarkPIMTreeQuery(b *testing.B) {
	w := 1 << 16
	pt := NewPIMTree(w, PIMTreeConfig{MergeRatio: 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < w; i++ {
		pt.Insert(pair(rng.Uint32(), uint32(i)))
	}
	pt.MergeInPlace(alwaysLive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Uint32()
		pt.QueryPairs(lo, lo+1000, func([]kv.Pair) bool { return true })
	}
}
