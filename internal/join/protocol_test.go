package join_test

import (
	"sync"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

// TestRunSharedBwExactResultSet verifies the shared Bw-Tree path produces
// the exact result multiset of the serial oracle, including under the
// deferred-delete protocol (the te-bound expiry machinery).
func TestRunSharedBwExactResultSet(t *testing.T) {
	arr := twoWayArrivals(6000, 50, 2048)
	var nl, sh []matchRec
	paper.NLWJ(arr, join.SerialConfig{WR: 512, WS: 512, Band: join.Band{Diff: 6}, Sink: collectSink(&nl)})
	var mu sync.Mutex
	st := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 4, WR: 512, WS: 512, Band: join.Band{Diff: 6},
		Index: paper.BwTree,
		Sink: func(s uint8, p, m uint64) {
			mu.Lock()
			sh = append(sh, matchRec{s, p, m})
			mu.Unlock()
		},
	})
	if st.Matches != uint64(len(nl)) {
		t.Fatalf("matches %d vs oracle %d", st.Matches, len(nl))
	}
	a := append([]matchRec{}, nl...)
	b := append([]matchRec{}, sh...)
	sortRecs(a)
	sortRecs(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d = %+v, oracle %+v", i, b[i], a[i])
		}
	}
}

// TestRunSharedManyMergesUnderLoad drives a configuration that merges very
// frequently with several workers, hammering the two-phase protocol's
// barriers, backlog guard, and pending-update replay.
func TestRunSharedManyMergesUnderLoad(t *testing.T) {
	arr := twoWayArrivals(20000, 51, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}})
	pc := smallPIM()
	pc.MergeRatio = 1.0 / 16 // merge every 16 inserts per stream at w=256
	st := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 2, WR: 256, WS: 256, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: pc,
	})
	if st.Merges < 50 {
		t.Fatalf("expected a merge storm, got %d merges", st.Merges)
	}
	if st.Matches != oracle.Matches {
		t.Fatalf("matches %d vs oracle %d after %d merges", st.Matches, oracle.Matches, st.Merges)
	}
}

// TestRunSharedBlockingMergeStorm is the blocking-merge counterpart.
func TestRunSharedBlockingMergeStorm(t *testing.T) {
	arr := twoWayArrivals(15000, 52, 4096)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 256, WS: 256, Band: join.Band{Diff: 8}})
	pc := smallPIM()
	pc.MergeRatio = 1.0 / 16
	st := paper.RunShared(arr, paper.SharedConfig{
		Threads: 3, TaskSize: 2, WR: 256, WS: 256, Band: join.Band{Diff: 8},
		Index: paper.PIMTree, PIM: pc, BlockingMerge: true,
	})
	if st.Merges < 30 {
		t.Fatalf("expected many blocking merges, got %d", st.Merges)
	}
	if st.Matches != oracle.Matches {
		t.Fatalf("matches %d vs oracle %d", st.Matches, oracle.Matches)
	}
}

// TestRunSharedSelfJoinMergeStorm covers the self-join single-index variant
// of the merge protocol (both pim slots point at one tree).
func TestRunSharedSelfJoinMergeStorm(t *testing.T) {
	arr := stream.NewSelfStream(capped{stream.NewUniform(53), 2048}).Take(15000)
	oracle := paper.NLWJ(arr, join.SerialConfig{WR: 256, Self: true, Band: join.Band{Diff: 5}})
	pc := smallPIM()
	pc.MergeRatio = 1.0 / 8
	st := paper.RunShared(arr, paper.SharedConfig{
		Threads: 4, TaskSize: 2, WR: 256, Self: true, Band: join.Band{Diff: 5},
		Index: paper.PIMTree, PIM: pc,
	})
	if st.Merges < 20 {
		t.Fatalf("expected many merges, got %d", st.Merges)
	}
	if st.Matches != oracle.Matches {
		t.Fatalf("matches %d vs oracle %d", st.Matches, oracle.Matches)
	}
}

// TestRunSharedDeterministicMatchTotals re-runs one configuration several
// times: total matches must be identical every time regardless of thread
// scheduling (the correctness protocol makes results schedule-independent).
func TestRunSharedDeterministicMatchTotals(t *testing.T) {
	arr := twoWayArrivals(8000, 54, 4096)
	var first uint64
	for rep := 0; rep < 4; rep++ {
		st := paper.RunShared(arr, paper.SharedConfig{
			Threads: 4, TaskSize: 3, WR: 512, WS: 512, Band: join.Band{Diff: 8},
			Index: paper.PIMTree, PIM: smallPIM(),
		})
		if rep == 0 {
			first = st.Matches
		} else if st.Matches != first {
			t.Fatalf("rep %d: matches %d != first %d", rep, st.Matches, first)
		}
	}
}
