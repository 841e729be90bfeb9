package join_test

import (
	"fmt"
	"sync"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

// The shared-index and round-robin joins are in internal/paper; their tests
// run here, against paper.NLWJ, on the serial tests' workload helpers.

func TestRunRRMatchesOracle(t *testing.T) {
	arr := twoWayArrivals(8000, 10, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 300, WS: 300, Band: join.Band{Diff: 8}})
	if oracle.Matches == 0 {
		t.Fatal("oracle empty")
	}
	for _, cores := range []int{1, 2, 4} {
		for _, indexed := range []bool{false, true} {
			got := paper.RunRR(arr, paper.RRConfig{
				Cores: cores, WR: 300, WS: 300, Band: join.Band{Diff: 8},
				Indexed: indexed, Batch: 128,
			})
			if got.Matches != oracle.Matches {
				t.Fatalf("cores=%d indexed=%v: matches = %d, oracle = %d",
					cores, indexed, got.Matches, oracle.Matches)
			}
		}
	}
}

func TestRunRRAsymmetricWindows(t *testing.T) {
	arr := twoWayArrivals(6000, 11, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 128, WS: 512, Band: join.Band{Diff: 10}})
	got := paper.RunRR(arr, paper.RRConfig{Cores: 3, WR: 128, WS: 512, Band: join.Band{Diff: 10}, Indexed: true, Batch: 64})
	if got.Matches != oracle.Matches {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
}

func TestRunSharedPIMMatchesOracle(t *testing.T) {
	arr := twoWayArrivals(8000, 12, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 8}})
	if oracle.Matches == 0 {
		t.Fatal("oracle empty")
	}
	for _, threads := range []int{1, 2, 4} {
		for _, taskSize := range []int{1, 4, 8} {
			got := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: taskSize, WR: 512, WS: 512,
				Band: join.Band{Diff: 8}, Index: paper.PIMTree, PIM: smallPIM(),
			})
			if got.Matches != oracle.Matches {
				t.Fatalf("threads=%d task=%d: matches = %d, oracle = %d",
					threads, taskSize, got.Matches, oracle.Matches)
			}
		}
	}
}

func TestRunSharedPIMExactResultSet(t *testing.T) {
	arr := twoWayArrivals(4000, 13, 2048)
	var nl, sh []matchRec
	paper.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 6}, Sink: collectSink(&nl)})
	var mu sync.Mutex
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 4, WR: 256, WS: 256, Band: join.Band{Diff: 6},
		Index: paper.PIMTree, PIM: smallPIM(),
		Sink: func(s uint8, p, m uint64) {
			mu.Lock()
			sh = append(sh, matchRec{s, p, m})
			mu.Unlock()
		},
	})
	if got.Matches != uint64(len(nl)) {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, len(nl))
	}
	a := append([]matchRec{}, nl...)
	b := append([]matchRec{}, sh...)
	sortRecs(a)
	sortRecs(b)
	if len(a) != len(b) {
		t.Fatalf("result sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d = %+v, oracle %+v", i, b[i], a[i])
		}
	}
}

// Order preservation (Section 1): results must propagate in arrival order.
// The sink observes probe tuples in exactly queue order.
func TestRunSharedOrderPreserved(t *testing.T) {
	arr := twoWayArrivals(3000, 14, 2048)
	type probe struct {
		stream uint8
		seq    uint64
	}
	var seen []probe
	paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 3, WR: 256, WS: 256, Band: join.Band{Diff: 20},
		Index: paper.PIMTree, PIM: smallPIM(),
		Sink: func(s uint8, p, m uint64) {
			if n := len(seen); n == 0 || seen[n-1].stream != s || seen[n-1].seq != p {
				seen = append(seen, probe{s, p})
			}
		},
	})
	// The distinct probe sequence must be a subsequence of the arrival
	// order: reconstruct per-stream counters and verify monotone assembly.
	counters := [2]uint64{}
	ai := 0
	for _, pr := range seen {
		// Advance through arrivals until this probe is found.
		found := false
		for ai < len(arr) {
			a := arr[ai]
			s := a.Stream
			seq := counters[s]
			counters[s]++
			ai++
			if s == pr.stream && seq == pr.seq {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("probe %+v out of arrival order", pr)
		}
	}
}

func TestRunSharedSelfJoin(t *testing.T) {
	arr := stream.NewSelfStream(capped{stream.NewUniform(15), 2048}).Take(6000)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, Self: true, Band: join.Band{Diff: 6}})
	if oracle.Matches == 0 {
		t.Fatal("oracle empty")
	}
	for _, threads := range []int{1, 3} {
		got := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: 512, Self: true,
			Band: join.Band{Diff: 6}, Index: paper.PIMTree, PIM: smallPIM(),
		})
		if got.Matches != oracle.Matches {
			t.Fatalf("threads=%d: matches = %d, oracle = %d", threads, got.Matches, oracle.Matches)
		}
	}
}

func TestRunSharedBwTree(t *testing.T) {
	arr := twoWayArrivals(8000, 16, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 8}})
	for _, threads := range []int{1, 4} {
		got := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: 512, WS: 512,
			Band: join.Band{Diff: 8}, Index: paper.BwTree,
		})
		if got.Matches != oracle.Matches {
			t.Fatalf("bw threads=%d: matches = %d, oracle = %d", threads, got.Matches, oracle.Matches)
		}
	}
}

func TestRunSharedBlockingMerge(t *testing.T) {
	arr := twoWayArrivals(8000, 17, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 8}})
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 3, TaskSize: 8, WR: 512, WS: 512, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: smallPIM(), BlockingMerge: true,
	})
	if got.Matches != oracle.Matches {
		t.Fatalf("blocking merge: matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
	if got.Merges == 0 {
		t.Fatal("no merges happened; test not exercising the path")
	}
}

func TestRunSharedNonblockingMergeHappens(t *testing.T) {
	arr := twoWayArrivals(10000, 18, 4096)
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 4, WR: 256, WS: 256, Band: join.Band{Diff: 4},
		Index: paper.PIMTree, PIM: smallPIM(),
	})
	if got.Merges == 0 {
		t.Fatal("nonblocking merge never triggered")
	}
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 4}})
	if got.Matches != oracle.Matches {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
}

func TestRunSharedAsymmetricWindows(t *testing.T) {
	arr := twoWayArrivals(6000, 19, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 128, WS: 1024, Band: join.Band{Diff: 8}})
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: 128, WS: 1024, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: smallPIM(),
	})
	if got.Matches != oracle.Matches {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
}

func TestRunSharedAsymmetricRates(t *testing.T) {
	gen := stream.NewInterleaver(20, capped{stream.NewUniform(21), 4096}, capped{stream.NewUniform(22), 4096}, 0.15)
	arr := gen.Take(8000)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 8}})
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 3, TaskSize: 8, WR: 512, WS: 512, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: smallPIM(),
	})
	if got.Matches != oracle.Matches {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
}

func TestRunSharedLatencyRecorded(t *testing.T) {
	arr := twoWayArrivals(4000, 23, 4096)
	rec := paper.NewLatencyRecorder(1<<14, 1)
	st := paper.RunShared(arr, paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: 512, WS: 512, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: smallPIM(), Latency: rec,
	})
	if st.Latency.Count == 0 {
		t.Fatal("no latency samples recorded")
	}
	if st.Latency.MeanMicros <= 0 {
		t.Fatalf("mean latency %f not positive", st.Latency.MeanMicros)
	}
	if st.Latency.P99Micros < st.Latency.P50Micros {
		t.Fatal("p99 below p50")
	}
}

func TestRunSharedTinyWindowBwPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for window smaller than in-flight bound")
		}
	}()
	paper.RunShared(make([]stream.Arrival, 10), paper.SharedConfig{
		Threads: 8, TaskSize: 64, WR: 64, WS: 64, Index: paper.BwTree,
	})
}

func TestRunSharedDistributionShift(t *testing.T) {
	// Drifting keys must not break correctness (Figure 13's scenario).
	g := stream.NewShiftingGaussian(24, 1.0, 1000, 3000)
	arr := stream.NewSelfStream(g).Take(6000)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 512, Self: true, Band: join.Band{Diff: 1 << 20}})
	got := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 8, WR: 512, Self: true, Band: join.Band{Diff: 1 << 20},
		Index: paper.PIMTree, PIM: smallPIM(),
	})
	if got.Matches != oracle.Matches {
		t.Fatalf("matches = %d, oracle = %d", got.Matches, oracle.Matches)
	}
}

func BenchmarkSharedPIM(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			n := b.N
			if n < 1000 {
				n = 1000
			}
			arr := twoWayArrivals(n, 1, 1<<24)
			b.ResetTimer()
			paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: 1 << 14, WS: 1 << 14,
				Band: join.Band{Diff: 1 << 10}, Index: paper.PIMTree,
			})
		})
	}
}
