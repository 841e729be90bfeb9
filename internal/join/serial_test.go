package join_test

import (
	"fmt"
	"sort"
	"testing"

	"pimtree/internal/core"
	"pimtree/internal/cstree"
	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// twoWayArrivals builds a deterministic symmetric two-stream workload.
func twoWayArrivals(n int, seed int64, keySpace uint32) []stream.Arrival {
	gen := stream.NewInterleaver(seed, capped{stream.NewUniform(seed + 1), keySpace}, capped{stream.NewUniform(seed + 2), keySpace}, 0.5)
	return gen.Take(n)
}

// capped restricts a generator to a smaller key space so tests get real
// match activity at tiny scales.
type capped struct {
	g     stream.KeyGen
	space uint32
}

func (c capped) Next() uint32 { return c.g.Next() % c.space }

// matchRec identifies one join output for exact set comparison.
type matchRec struct {
	stream   uint8
	probeSeq uint64
	matchSeq uint64
}

func collectSink(recs *[]matchRec) join.MatchSink {
	return func(s uint8, p, m uint64) {
		*recs = append(*recs, matchRec{s, p, m})
	}
}

func sortRecs(rs []matchRec) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		if a.probeSeq != b.probeSeq {
			return a.probeSeq < b.probeSeq
		}
		return a.matchSeq < b.matchSeq
	})
}

func allIndexKinds() []join.IndexKind {
	return []join.IndexKind{join.IndexBTree, join.IndexChainB, join.IndexChainIB, join.IndexIMTree, join.IndexPIMTree}
}

func smallPIM() core.PIMTreeConfig {
	return core.PIMTreeConfig{MergeRatio: 0.5, InsertionDepth: 2, CSTree: cstree.Config{Fanout: 8, LeafSize: 8}}
}

func TestIBWJSerialAllIndexesMatchNLWJ(t *testing.T) {
	arr := twoWayArrivals(6000, 1, 4096)
	base := join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}}
	oracle := join.NLWJ(arr, base)
	if oracle.Matches == 0 {
		t.Fatal("oracle produced no matches; workload broken")
	}
	for _, kind := range allIndexKinds() {
		cfg := base
		cfg.Index = kind
		cfg.ChainLength = 3
		cfg.PIM = smallPIM()
		got := join.IBWJSerial(arr, cfg)
		if got.Matches != oracle.Matches {
			t.Fatalf("%v: matches = %d, oracle = %d", kind, got.Matches, oracle.Matches)
		}
		if got.Tuples != len(arr) {
			t.Fatalf("%v: tuples = %d", kind, got.Tuples)
		}
	}
}

// TestNewIndexBwTreePanics: the Bw-Tree has no single-writer adapter; only
// paper.RunShared builds it.
func TestNewIndexBwTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewIndex built a Bw-Tree")
		}
	}()
	join.NewIndex(join.IndexBwTree, 64, 0, core.PIMTreeConfig{})
}

func TestIBWJSerialExactResultSet(t *testing.T) {
	arr := twoWayArrivals(3000, 2, 2048)
	var nl, ib []matchRec
	cfgNL := join.SerialConfig{WR: 128, WS: 128, Band: join.Band{Diff: 6}, Sink: collectSink(&nl)}
	join.NLWJ(arr, cfgNL)
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexPIMTree, join.IndexIMTree} {
		ib = ib[:0]
		cfg := join.SerialConfig{WR: 128, WS: 128, Band: join.Band{Diff: 6}, Sink: collectSink(&ib),
			Index: kind, PIM: smallPIM()}
		join.IBWJSerial(arr, cfg)
		if len(ib) != len(nl) {
			t.Fatalf("%v: %d results, oracle %d", kind, len(ib), len(nl))
		}
		a := append([]matchRec{}, nl...)
		b := append([]matchRec{}, ib...)
		sortRecs(a)
		sortRecs(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: result %d = %+v, oracle %+v", kind, i, b[i], a[i])
			}
		}
	}
}

func TestSelfJoinSerial(t *testing.T) {
	arr := stream.NewSelfStream(capped{stream.NewUniform(7), 2048}).Take(5000)
	base := join.SerialConfig{WR: 256, Self: true, Band: join.Band{Diff: 5}}
	oracle := join.NLWJ(arr, base)
	if oracle.Matches == 0 {
		t.Fatal("self-join oracle produced no matches")
	}
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexPIMTree, join.IndexIMTree} {
		cfg := base
		cfg.Index = kind
		cfg.PIM = smallPIM()
		got := join.IBWJSerial(arr, cfg)
		if got.Matches != oracle.Matches {
			t.Fatalf("%v self-join: matches = %d, oracle = %d", kind, got.Matches, oracle.Matches)
		}
	}
}

func TestAsymmetricWindowsSerial(t *testing.T) {
	arr := twoWayArrivals(6000, 3, 4096)
	for _, ws := range []int{64, 256, 1024} {
		base := join.SerialConfig{WR: 256, WS: ws, Band: join.Band{Diff: 8}}
		oracle := join.NLWJ(arr, base)
		cfg := base
		cfg.Index = join.IndexPIMTree
		cfg.PIM = smallPIM()
		got := join.IBWJSerial(arr, cfg)
		if got.Matches != oracle.Matches {
			t.Fatalf("ws=%d: matches = %d, oracle = %d", ws, got.Matches, oracle.Matches)
		}
	}
}

func TestSerialMergesHappen(t *testing.T) {
	arr := twoWayArrivals(4000, 4, 4096)
	cfg := join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 4}, Index: join.IndexPIMTree, PIM: smallPIM()}
	st := join.IBWJSerial(arr, cfg)
	if st.Merges == 0 {
		t.Fatal("PIM-Tree never merged over 4000 tuples at m=0.5, w=256")
	}
	if st.MergeTime <= 0 {
		t.Fatal("merge time not accounted")
	}
}

func TestStepCostsAccounting(t *testing.T) {
	arr := twoWayArrivals(3000, 5, 4096)
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexIMTree, join.IndexPIMTree} {
		cfg := join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}, Index: kind, PIM: smallPIM()}
		st := join.StepCosts(arr, cfg)
		if st.Tuples() != uint64(len(arr)) {
			t.Fatalf("%v: ticks = %d", kind, st.Tuples())
		}
		if st.PerTuple(0) < 0 {
			t.Fatalf("%v: negative search cost", kind)
		}
		if kind == join.IndexBTree && st.Total(4) != 0 {
			t.Fatalf("B+-Tree should have zero merge cost, got %v", st.Total(4))
		}
		if kind != join.IndexBTree && st.Total(3) != 0 {
			t.Fatalf("%v should have zero delete cost, got %v", kind, st.Total(3))
		}
	}
}

func TestSerialConfigValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero WR":  func() { join.NLWJ(nil, join.SerialConfig{WR: 0, WS: 1}) },
		"zero WS":  func() { join.NLWJ(nil, join.SerialConfig{WR: 1, WS: 0}) },
		"bad kind": func() { join.IBWJSerial(nil, join.SerialConfig{WR: 1, WS: 1, Index: join.IndexKind(99)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkSerialIBWJ(b *testing.B) {
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexIMTree, join.IndexPIMTree} {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			arr := twoWayArrivals(b.N+1, 1, 1<<20)
			cfg := join.SerialConfig{WR: 1 << 14, WS: 1 << 14, Band: join.Band{Diff: 32},
				Index: kind, PIM: core.PIMTreeConfig{MergeRatio: 0.125}}
			b.ResetTimer()
			join.IBWJSerial(arr[:b.N], cfg)
		})
	}
}
