package pimtree

import (
	"context"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

// Open rejects out-of-range Config.Index values in the sharded mode too.
func TestIndexValidation(t *testing.T) {
	if _, err := Open(Config{Mode: ModeSharded, WindowR: 10, WindowS: 10, Index: IndexOptions{MergeRatio: 2}}); err == nil {
		t.Fatal("merge ratio > 1 accepted")
	}
	if _, err := Open(Config{Mode: ModeSharded, WindowR: 10, WindowS: 10, Index: IndexOptions{InsertionDepth: -1}}); err == nil {
		t.Fatal("negative DI accepted")
	}
}

// openSerial opens a serial engine on cfg, closed when the test ends.
func openSerial(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cfg.Mode = ModeSerial
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close(context.Background()) })
	return e
}

// push feeds one tuple to a serial engine and returns how many matches it
// produced.
func push(t *testing.T, e *Engine, s StreamID, key uint32) int {
	t.Helper()
	before := e.Stats().Matches
	if err := e.Push(s, key); err != nil {
		t.Fatal(err)
	}
	return int(e.Stats().Matches - before)
}

func TestJoinPushTwoWay(t *testing.T) {
	e := openSerial(t, Config{WindowR: 64, WindowS: 64, Diff: 0, Backend: PIMTree})
	if n := push(t, e, R, 42); n != 0 {
		t.Fatalf("first tuple matched %d", n)
	}
	if n := push(t, e, S, 42); n != 1 {
		t.Fatalf("equal key matched %d, want 1", n)
	}
	if n := push(t, e, S, 43); n != 0 {
		t.Fatalf("diff=0 should not match 42 vs 43, got %d", n)
	}
	if st := e.Stats(); st.Matches != 1 || st.Tuples != 3 {
		t.Fatalf("Matches=%d Tuples=%d", st.Matches, st.Tuples)
	}
	if r, s := e.serial.WindowCount(uint8(R)), e.serial.WindowCount(uint8(S)); r != 1 || s != 2 {
		t.Fatalf("window counts %d/%d", r, s)
	}
}

func TestJoinExpiry(t *testing.T) {
	e := openSerial(t, Config{WindowR: 4, WindowS: 4, Diff: 1000, Backend: BPlusTree})
	push(t, e, R, 10)
	for i := 0; i < 4; i++ {
		push(t, e, R, 5000) // slide the R window; key 10 falls out
	}
	if n := push(t, e, S, 10); n != 0 {
		t.Fatalf("expired tuple still matched (%d)", n)
	}
	if n := push(t, e, S, 5000); n != 4 {
		t.Fatalf("live tuples matched %d, want 4", n)
	}
}

func TestJoinAllBackendsAgree(t *testing.T) {
	backends := []Backend{PIMTree, IMTree, BPlusTree}
	engines := make([]*Engine, len(backends))
	for i, b := range backends {
		engines[i] = openSerial(t, Config{
			WindowR: 128, WindowS: 128, Diff: 1 << 22, Backend: b,
			Index: IndexOptions{MergeRatio: 0.5},
		})
	}
	arr := Interleave(4, UniformSource(1), UniformSource(2), 0.5, 4000)
	for _, a := range arr {
		want := push(t, engines[0], a.Stream, a.Key)
		for i := 1; i < len(engines); i++ {
			if got := push(t, engines[i], a.Stream, a.Key); got != want {
				t.Fatalf("%v disagrees with %v: %d vs %d", backends[i], backends[0], got, want)
			}
		}
	}
	if engines[0].Stats().Matches == 0 {
		t.Fatal("no matches at all; test vacuous")
	}
}

func TestJoinOnMatchOrdering(t *testing.T) {
	var matches []Match
	e := openSerial(t, Config{
		WindowR: 32, Self: true, Diff: KeySpace, Backend: PIMTree,
		OnMatch: func(m Match) { matches = append(matches, m) },
	})
	for i := uint32(0); i < 10; i++ {
		push(t, e, R, i)
	}
	// Tuple i matches all earlier tuples: 0+1+...+9 = 45 matches, probe
	// sequences non-decreasing.
	if len(matches) != 45 {
		t.Fatalf("OnMatch saw %d, want 45", len(matches))
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].ProbeSeq < matches[i-1].ProbeSeq {
			t.Fatal("probe sequence regressed")
		}
	}
}

func TestJoinValidation(t *testing.T) {
	if _, err := Open(Config{Mode: ModeSerial, WindowR: 0}); err == nil {
		t.Fatal("zero WindowR accepted")
	}
	if _, err := Open(Config{Mode: ModeSerial, WindowR: 4, WindowS: 0}); err == nil {
		t.Fatal("zero WindowS accepted")
	}
	openSerial(t, Config{WindowR: 4, Self: true}) // self-join needs no WindowS
}

func TestRunParallelMatchesSerial(t *testing.T) {
	arr := Interleave(9, UniformSource(5), UniformSource(6), 0.5, 20000)
	diff := DiffForMatchRate(512, 2)

	for _, b := range []Backend{PIMTree, BPlusTree} {
		serial := runSession(t, arr, Config{Mode: ModeSerial, WindowR: 512, WindowS: 512, Diff: diff, Backend: b, DiscardMatches: true})
		st := runSession(t, arr, Config{
			Mode: ModeSharded, Shards: 4, WindowR: 512, WindowS: 512, Diff: diff, Backend: b, DiscardMatches: true,
		})
		if st.Matches != serial.Matches || st.Matches == 0 {
			t.Fatalf("%s: parallel matches = %d, serial = %d", b, st.Matches, serial.Matches)
		}
		if st.Mtps <= 0 {
			t.Fatalf("%s: throughput not measured", b)
		}
	}
}

// TestRunParallelBwTreeAndLatency runs the shared-index parallel join (the
// runner behind the paper's latency figure) over the Bw-Tree with latency
// sampling on, and checks it against the serial Engine.
func TestRunParallelBwTreeAndLatency(t *testing.T) {
	arr := Interleave(11, UniformSource(7), UniformSource(8), 0.5, 10000)
	diff := DiffForMatchRate(1024, 2)
	serial := runSession(t, arr, Config{
		Mode: ModeSerial, WindowR: 1024, WindowS: 1024, Diff: diff, Backend: BPlusTree, DiscardMatches: true,
	})

	in := make([]stream.Arrival, len(arr))
	for i, a := range arr {
		in[i] = stream.Arrival{Stream: uint8(a.Stream), Key: a.Key}
	}
	st := paper.RunShared(in, paper.SharedConfig{
		Threads: 2, WR: 1024, WS: 1024, Band: join.Band{Diff: diff},
		Index: paper.BwTree, Latency: paper.NewLatencyRecorder(1<<14, 1),
	})
	if st.Matches == 0 || st.Matches != serial.Matches {
		t.Fatalf("parallel matches = %d, serial = %d", st.Matches, serial.Matches)
	}
	if st.Latency.MeanMicros <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestRunParallelValidation(t *testing.T) {
	if _, err := Open(Config{Mode: ModeSharded, WindowR: 0}); err == nil {
		t.Fatal("zero WindowR accepted")
	}
	if _, err := Open(Config{Mode: ModeSharded, WindowR: 5, WindowS: 0}); err == nil {
		t.Fatal("zero WindowS accepted")
	}
}

func TestWorkloadHelpers(t *testing.T) {
	if UniformSource(1).Next() == UniformSource(2).Next() {
		// Not impossible, but with the same draw index it is astronomically
		// unlikely; treat as seed wiring failure.
		t.Fatal("different seeds produced identical first draw")
	}
	u := UniformSource(9)
	for i := 0; i < 1000; i++ {
		if u.Next() >= KeySpace {
			t.Fatal("uniform key outside KeySpace")
		}
	}
	// Skewed sources may exceed KeySpace (domain headroom for drift) but
	// must stay usable and deterministic.
	g := GaussianSource(1, 0.5, 0.125)
	g2 := GaussianSource(1, 0.5, 0.125)
	ga := GammaSource(1, 3, 3)
	d := DriftingGaussianSource(1, 0.5, 10, 10)
	for i := 0; i < 100; i++ {
		if g.Next() != g2.Next() {
			t.Fatal("gaussian source not deterministic")
		}
		ga.Next()
		d.Next()
	}
	arr := SelfArrivals(UniformSource(3), 50)
	if len(arr) != 50 || arr[0].Stream != R {
		t.Fatal("SelfArrivals wrong")
	}
	if DiffForMatchRate(1<<16, 2) == 0 {
		t.Fatal("closed-form diff zero")
	}
	diff := CalibrateDiff(func(s int64) KeySource { return GaussianSource(s, 0.5, 0.125) }, 1<<12, 2)
	if diff == 0 {
		t.Fatal("calibrated diff zero")
	}
}

func TestBackendStrings(t *testing.T) {
	for b, want := range map[Backend]string{
		PIMTree: "PIM-Tree", IMTree: "IM-Tree", BPlusTree: "B+-Tree",
		-1: "unknown", 3: "unknown", 99: "unknown",
	} {
		if b.String() != want {
			t.Fatalf("%d.String() = %q, want %q", b, b.String(), want)
		}
	}
}
