package join_test

import (
	"testing"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

// Edge-case and failure-injection coverage for all drivers: degenerate
// windows, empty inputs, extreme predicates, and configuration boundaries.

func TestEmptyArrivals(t *testing.T) {
	cfg := join.SerialConfig{WR: 8, WS: 8, Band: join.Band{Diff: 1}}
	if st := join.NLWJ(nil, cfg); st.Tuples != 0 || st.Matches != 0 {
		t.Fatal("NLWJ on empty input")
	}
	cfg.Index = join.IndexPIMTree
	if st := join.IBWJSerial(nil, cfg); st.Tuples != 0 || st.Matches != 0 {
		t.Fatal("IBWJ on empty input")
	}
	if st := paper.RunRR(nil, paper.RRConfig{Cores: 2, WR: 8, WS: 8}); st.Tuples != 0 {
		t.Fatal("RR on empty input")
	}
	if st := paper.RunShared(nil, paper.SharedConfig{Threads: 2, WR: 64, WS: 64, Index: join.IndexPIMTree}); st.Tuples != 0 {
		t.Fatal("shared on empty input")
	}
}

func TestSingleTuple(t *testing.T) {
	arr := []stream.Arrival{{Stream: stream.StreamR, Key: 42}}
	st := join.IBWJSerial(arr, join.SerialConfig{WR: 4, WS: 4, Band: join.Band{Diff: 100}, Index: join.IndexBTree})
	if st.Matches != 0 || st.Tuples != 1 {
		t.Fatalf("single tuple: %+v", st)
	}
	st = paper.RunShared(arr, paper.SharedConfig{Threads: 4, TaskSize: 8, WR: 64, WS: 64,
		Band: join.Band{Diff: 100}, Index: join.IndexPIMTree})
	if st.Matches != 0 || st.Tuples != 1 {
		t.Fatalf("single tuple shared: %+v", st)
	}
}

func TestWindowOfOne(t *testing.T) {
	arr := twoWayArrivals(500, 31, 64)
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 1, WS: 1, Band: join.Band{Diff: 2}})
	got := join.IBWJSerial(arr, join.SerialConfig{WR: 1, WS: 1, Band: join.Band{Diff: 2}, Index: join.IndexBTree})
	if got.Matches != oracle.Matches {
		t.Fatalf("w=1: %d vs oracle %d", got.Matches, oracle.Matches)
	}
	gotPIM := join.IBWJSerial(arr, join.SerialConfig{WR: 1, WS: 1, Band: join.Band{Diff: 2},
		Index: join.IndexPIMTree, PIM: smallPIM()})
	if gotPIM.Matches != oracle.Matches {
		t.Fatalf("w=1 PIM: %d vs oracle %d", gotPIM.Matches, oracle.Matches)
	}
}

func TestZeroDiffEqualityJoin(t *testing.T) {
	// diff=0 degenerates the band join to an equi-join.
	arr := twoWayArrivals(3000, 32, 64) // tiny key space: plenty of equal keys
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 128, WS: 128, Band: join.Band{Diff: 0}})
	if oracle.Matches == 0 {
		t.Fatal("equality oracle found nothing; key space too large")
	}
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexPIMTree} {
		got := join.IBWJSerial(arr, join.SerialConfig{WR: 128, WS: 128, Band: join.Band{Diff: 0},
			Index: kind, PIM: smallPIM()})
		if got.Matches != oracle.Matches {
			t.Fatalf("%v diff=0: %d vs %d", kind, got.Matches, oracle.Matches)
		}
	}
}

func TestFullDomainDiff(t *testing.T) {
	// diff covering the whole domain: every live pair matches (cross join).
	arr := twoWayArrivals(400, 33, 1<<30)
	w := 32
	oracle := join.NLWJ(arr, join.SerialConfig{WR: w, WS: w, Band: join.Band{Diff: ^uint32(0)}})
	got := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: join.Band{Diff: ^uint32(0)},
		Index: join.IndexPIMTree, PIM: smallPIM()})
	if got.Matches != oracle.Matches {
		t.Fatalf("cross join: %d vs %d", got.Matches, oracle.Matches)
	}
}

func TestMoreThreadsThanTuples(t *testing.T) {
	arr := twoWayArrivals(10, 34, 1024)
	st := paper.RunShared(arr, paper.SharedConfig{Threads: 8, TaskSize: 4, WR: 512, WS: 512,
		Band: join.Band{Diff: 1000}, Index: join.IndexPIMTree, PIM: smallPIM()})
	if st.Tuples != 10 {
		t.Fatalf("tuples = %d", st.Tuples)
	}
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 1000}})
	if st.Matches != oracle.Matches {
		t.Fatalf("matches %d vs %d", st.Matches, oracle.Matches)
	}
}

func TestTaskSizeLargerThanInput(t *testing.T) {
	arr := twoWayArrivals(5, 35, 1024)
	st := paper.RunShared(arr, paper.SharedConfig{Threads: 2, TaskSize: 100, WR: 512, WS: 512,
		Band: join.Band{Diff: 1 << 28}, Index: join.IndexPIMTree, PIM: smallPIM()})
	if st.Tuples != 5 {
		t.Fatalf("tuples = %d", st.Tuples)
	}
}

func TestOneSidedInput(t *testing.T) {
	// All tuples from one stream: a two-way join must emit nothing.
	arr := make([]stream.Arrival, 1000)
	for i := range arr {
		arr[i] = stream.Arrival{Stream: stream.StreamR, Key: uint32(i % 50)}
	}
	st := join.IBWJSerial(arr, join.SerialConfig{WR: 64, WS: 64, Band: join.Band{Diff: 1 << 30},
		Index: join.IndexPIMTree, PIM: smallPIM()})
	if st.Matches != 0 {
		t.Fatalf("one-sided join matched %d", st.Matches)
	}
	stP := paper.RunShared(arr, paper.SharedConfig{Threads: 2, TaskSize: 8, WR: 512, WS: 512,
		Band: join.Band{Diff: 1 << 30}, Index: join.IndexPIMTree, PIM: smallPIM()})
	if stP.Matches != 0 {
		t.Fatalf("one-sided parallel join matched %d", stP.Matches)
	}
}

func TestExtremeMergeRatios(t *testing.T) {
	arr := twoWayArrivals(3000, 36, 4096)
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}})
	for _, m := range []float64{1.0 / 256, 1} {
		pc := core.PIMTreeConfig{MergeRatio: m, InsertionDepth: 2}
		got := join.IBWJSerial(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8},
			Index: join.IndexPIMTree, PIM: pc})
		if got.Matches != oracle.Matches {
			t.Fatalf("m=%f: %d vs %d", m, got.Matches, oracle.Matches)
		}
	}
}

func TestExtremeInsertionDepths(t *testing.T) {
	arr := twoWayArrivals(3000, 37, 4096)
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}})
	for _, di := range []int{1, 8} { // 8 clamps to the feasible maximum
		pc := core.PIMTreeConfig{MergeRatio: 0.5, InsertionDepth: di}
		got := join.IBWJSerial(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8},
			Index: join.IndexPIMTree, PIM: pc})
		if got.Matches != oracle.Matches {
			t.Fatalf("di=%d: %d vs %d", di, got.Matches, oracle.Matches)
		}
	}
}

func TestRRSingleCoreEqualsSerial(t *testing.T) {
	arr := twoWayArrivals(2000, 38, 2048)
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 128, WS: 128, Band: join.Band{Diff: 16}})
	got := paper.RunRR(arr, paper.RRConfig{Cores: 1, WR: 128, WS: 128, Band: join.Band{Diff: 16}, Indexed: true})
	if got.Matches != oracle.Matches {
		t.Fatalf("1-core RR: %d vs %d", got.Matches, oracle.Matches)
	}
}

func TestRRMoreCoresThanWindow(t *testing.T) {
	arr := twoWayArrivals(2000, 39, 2048)
	oracle := join.NLWJ(arr, join.SerialConfig{WR: 4, WS: 4, Band: join.Band{Diff: 1 << 24}})
	got := paper.RunRR(arr, paper.RRConfig{Cores: 8, WR: 4, WS: 4, Band: join.Band{Diff: 1 << 24}, Indexed: true, Batch: 16})
	if got.Matches != oracle.Matches {
		t.Fatalf("tiny-window RR: %d vs %d", got.Matches, oracle.Matches)
	}
}

func TestSharedStatsAccounting(t *testing.T) {
	arr := twoWayArrivals(6000, 40, 4096)
	st := paper.RunShared(arr, paper.SharedConfig{Threads: 2, TaskSize: 8, WR: 256, WS: 256,
		Band: join.Band{Diff: 8}, Index: join.IndexPIMTree, PIM: smallPIM()})
	if st.Tuples != 6000 {
		t.Fatalf("tuples = %d", st.Tuples)
	}
	if st.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
	if st.Merges > 0 && st.MergeTime <= 0 {
		t.Fatal("merge time missing despite merges")
	}
}

func TestSharedChunkThroughput(t *testing.T) {
	arr := twoWayArrivals(8000, 41, 4096)
	st := paper.RunShared(arr, paper.SharedConfig{Threads: 2, TaskSize: 8, WR: 512, WS: 512,
		Band: join.Band{Diff: 8}, Index: join.IndexPIMTree, PIM: smallPIM(), ChunkTuples: 1000})
	if len(st.Chunks) < 7 {
		t.Fatalf("chunks = %d, want >= 7", len(st.Chunks))
	}
	for i, c := range st.Chunks {
		if c.Mtps <= 0 || c.Tuples != 1000 {
			t.Fatalf("chunk %d = %+v", i, c)
		}
	}
}

func TestStreamingEngineIntrospection(t *testing.T) {
	var got [][2]uint64
	sink := func(_ uint8, probeSeq, matchSeq uint64) { got = append(got, [2]uint64{probeSeq, matchSeq}) }
	eng := join.NewStreaming(join.SerialConfig{WR: 16, WS: 16, Band: join.Band{Diff: 5}, Index: join.IndexBTree, Sink: sink})
	eng.Push(stream.Arrival{Stream: stream.StreamR, Key: 10})
	eng.Push(stream.Arrival{Stream: stream.StreamS, Key: 11})
	if len(got) != 1 || got[0] != [2]uint64{0, 0} {
		t.Fatalf("matches (probe seq, match seq) = %v, want [[0 0]]", got)
	}
	if eng.WindowCount(stream.StreamR) != 1 || eng.WindowCount(stream.StreamS) != 1 {
		t.Fatal("window count wrong")
	}
}

// A tuple is resident, and so matchable, exactly while it is among the last
// w of its stream: the window's Live decides it from ring position alone,
// whether the ring is keyless (PIM-Tree, IM-Tree) or keyed (B+-Tree). Each
// probe from S names one R key, and must match that tuple only while it is
// live: never before it was pushed, and never once w later R tuples
// followed it, though a lazily pruned index may still hold its entry.
func TestStreamingLiveResidency(t *testing.T) {
	const w, n = 3, 29
	for _, kind := range []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree} {
		var got []uint64
		sink := func(_ uint8, _, matchSeq uint64) { got = append(got, matchSeq) }
		eng := join.NewStreaming(join.SerialConfig{WR: w, WS: w, Band: join.Band{Diff: 1}, Index: kind, Sink: sink})
		keyOf := func(seq uint64) uint32 { return uint32(100 + 10*seq) }
		if eng.Push(stream.Arrival{Stream: stream.StreamS, Key: keyOf(0)}) != 0 || eng.WindowCount(stream.StreamR) != 0 {
			t.Fatalf("%v: probe of an empty window matched", kind)
		}
		for seq := uint64(0); seq < n; seq++ {
			eng.Push(stream.Arrival{Stream: stream.StreamR, Key: keyOf(seq)})
		}
		if eng.WindowCount(stream.StreamR) != w {
			t.Fatalf("%v: WindowCount = %d, want %d", kind, eng.WindowCount(stream.StreamR), w)
		}
		for seq := uint64(0); seq < n+2; seq++ {
			got = got[:0]
			eng.Push(stream.Arrival{Stream: stream.StreamS, Key: keyOf(seq)})
			resident := seq < n && n-seq <= w
			if resident != (len(got) == 1) || len(got) > 1 || resident && got[0] != seq {
				t.Fatalf("%v: probe of R seq %d matched %v at head %d, want resident %v", kind, seq, got, n, resident)
			}
		}
	}
}
