package pimtree

import (
	"errors"
	"fmt"
	"testing"
)

func TestTimeJoinBasics(t *testing.T) {
	j, err := NewTimeJoin(TimeJoinOptions{Span: 100, Diff: 0})
	if err != nil {
		t.Fatal(err)
	}
	j.Push(R, 42, 0)
	if n := j.Push(S, 42, 50); n != 1 {
		t.Fatalf("in-window match count = %d, want 1", n)
	}
	// ts=150: the R tuple (ts=0) is 150 old >= span 100 — expired.
	if n := j.Push(S, 42, 150); n != 0 {
		t.Fatalf("expired tuple matched (%d)", n)
	}
	if j.Matches() != 1 || j.Tuples() != 3 {
		t.Fatalf("Matches=%d Tuples=%d", j.Matches(), j.Tuples())
	}
}

func TestTimeJoinSelf(t *testing.T) {
	var got []Match
	j, err := NewTimeJoin(TimeJoinOptions{
		Span: 10, Self: true, Diff: 5,
		OnMatch: func(m Match) { got = append(got, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Push(R, 100, 0)
	j.Push(R, 103, 5) // matches 100
	j.Push(R, 200, 9) // no match
	if len(got) != 1 {
		t.Fatalf("OnMatch saw %d, want 1", len(got))
	}
	if j.WindowCount(R) != 3 {
		t.Fatalf("window count = %d, want 3", j.WindowCount(R))
	}
}

func TestTimeJoinGrowthKeepsCorrectness(t *testing.T) {
	// Push enough tuples at the same instant that the ring must grow, then
	// verify matches still resolve.
	j, err := NewTimeJoin(TimeJoinOptions{Span: 1 << 40, Self: true, Diff: 0})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		j.Push(R, 7, uint64(i))
	}
	// Every tuple matches all predecessors: n*(n-1)/2.
	want := uint64(n * (n - 1) / 2)
	if j.Matches() != want {
		t.Fatalf("Matches = %d, want %d", j.Matches(), want)
	}
}

func TestTimeJoinValidation(t *testing.T) {
	if _, err := NewTimeJoin(TimeJoinOptions{Span: 0}); err == nil {
		t.Fatal("zero span accepted")
	}
}

func TestShardedTimeMatchesTimeJoin(t *testing.T) {
	// Build a timed workload and compare the parallel time-window runtime
	// against the incremental serial TimeJoin on identical input.
	const n = 8000
	const span = 500
	arr := make([]TimedArrival, n)
	u1 := UniformSource(70)
	ts := uint64(0)
	for i := range arr {
		ts += uint64(i % 3)
		s := R
		if i%2 == 1 {
			s = S
		}
		arr[i] = TimedArrival{Stream: s, Key: u1.Next() % 4096, TS: ts}
	}

	serial, err := NewTimeJoin(TimeJoinOptions{Span: span, Diff: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		serial.Push(a.Stream, a.Key, a.TS)
	}

	_, st := runShardedTime(t, arr, Config{Shards: 3, BatchSize: 4, Span: span, MaxLive: 4096, Diff: 8})
	if st.Matches != serial.Matches() {
		t.Fatalf("parallel time join matches = %d, serial = %d", st.Matches, serial.Matches())
	}
	if st.Mtps <= 0 {
		t.Fatal("throughput missing")
	}
}

// MaxLive is a sizing hint, not a capacity: a burst of 16× MaxLive tuples
// inside one Span grows the shard stores, and the sharded time join still
// reproduces the serial TimeJoin exactly.
func TestShardedTimeOutgrowsMaxLive(t *testing.T) {
	const maxLive, burst, span = 64, 16 * 64, 200
	var arr []TimedArrival
	u := UniformSource(31)
	ts := uint64(0)
	for i := 0; i < 3000; i++ {
		if i < 1000 || i >= 1000+burst {
			ts++ // the burst shares one timestamp
		}
		s := R
		if i%2 == 1 {
			s = S
		}
		arr = append(arr, TimedArrival{Stream: s, Key: u.Next() % 4096, TS: ts})
	}
	want := timeOracle(t, arr, span, 8, false)
	got, _ := runShardedTime(t, arr, Config{Shards: 2, BatchSize: 8, Span: span, MaxLive: maxLive, Diff: 8})
	if len(want) < burst {
		t.Fatalf("oracle has %d distinct matches: the burst barely joins", len(want))
	}
	sameMultiset(t, "sharded time join past MaxLive", want, got)
}

// The band clamps at both ends of the key domain: a probe at key 0 or
// ^uint32(0) with Diff > 0 must neither wrap around nor miss its neighbours.
func TestTimeJoinBandSaturates(t *testing.T) {
	const top = ^uint32(0)
	keys := []uint32{0, 1, 2, 5, top, top - 1, top - 2, top - 5, 1 << 31}
	arr := make([]TimedArrival, 400)
	for i := range arr {
		s := R
		if i%2 == 1 {
			s = S
		}
		arr[i] = TimedArrival{Stream: s, Key: keys[(i*7)%len(keys)], TS: uint64(i)}
	}
	for _, diff := range []uint32{1, 2, 1 << 31, top} {
		want := bruteTimeMatches(arr, 50, diff, false)
		got := map[Match]int{}
		j, err := NewTimeJoin(TimeJoinOptions{Span: 50, Diff: diff, OnMatch: func(m Match) { got[m]++ }})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arr {
			j.Push(a.Stream, a.Key, a.TS)
		}
		if len(want) == 0 {
			t.Fatalf("diff=%d: oracle found no matches; test vacuous", diff)
		}
		if len(got) != len(want) {
			t.Fatalf("diff=%d: %d distinct matches, oracle has %d", diff, len(got), len(want))
		}
		for m, c := range want {
			if got[m] != c {
				t.Fatalf("diff=%d: match %+v count %d, oracle %d", diff, m, got[m], c)
			}
		}
	}
}

// bruteTimeMatches computes the expected match multiset of a
// timestamp-ordered sequence by brute force, with per-stream sequence
// numbering — the oracle for the ring-growth regression tests below.
func bruteTimeMatches(arr []TimedArrival, span uint64, diff uint32, self bool) map[Match]int {
	out := map[Match]int{}
	type tup struct {
		stream StreamID
		key    uint32
		ts     uint64
		seq    uint64
	}
	var hist []tup
	var seqs [2]uint64
	sid := func(s StreamID) int {
		if self {
			return 0
		}
		return int(s)
	}
	band := func(a, b uint32) bool {
		if a > b {
			a, b = b, a
		}
		return b-a <= diff
	}
	for _, a := range arr {
		own := sid(a.Stream)
		seq := seqs[own]
		seqs[own]++
		for _, h := range hist {
			if !self && sid(h.stream) == own {
				continue
			}
			if a.TS-h.ts >= span || !band(a.Key, h.key) {
				continue
			}
			out[Match{ProbeStream: a.Stream, ProbeSeq: seq, MatchSeq: h.seq}]++
		}
		hist = append(hist, tup{stream: a.Stream, key: a.Key, ts: a.TS, seq: seq})
	}
	return out
}

// Regression for the ring-growth reindex path: force mid-stream ring growth
// (live population past the initial 1024-slot capacity, twice) with OnMatch
// enabled, keep expiry active, and pin the full (ProbeStream, ProbeSeq,
// MatchSeq) multiset against the brute-force oracle. This catches both ref
// drift after the seq&mask re-homing and probe-sequence drift (ProbeSeq was
// once reported as the ring clock rather than the tuple's sequence number).
func TestTimeJoinGrowthMatchMultiset(t *testing.T) {
	const n = 6000
	const span = 3000 // live population grows past 1024, then 2048
	const diff = 2
	arr := make([]TimedArrival, n)
	u := UniformSource(77)
	for i := range arr {
		s := R
		if i%3 == 1 {
			s = S
		}
		arr[i] = TimedArrival{Stream: s, Key: u.Next() % 256, TS: uint64(i)}
	}
	want := bruteTimeMatches(arr, span, diff, false)

	got := map[Match]int{}
	j, err := NewTimeJoin(TimeJoinOptions{
		Span: span, Diff: diff,
		OnMatch: func(m Match) { got[m]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		j.Push(a.Stream, a.Key, a.TS)
	}
	if j.WindowCount(R) <= 1024 {
		t.Fatalf("window count %d never outgrew the initial ring", j.WindowCount(R))
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct matches, oracle has %d", len(got), len(want))
	}
	for m, c := range want {
		if got[m] != c {
			t.Fatalf("match %+v count %d, oracle %d", m, got[m], c)
		}
	}
}

// The same pin for self-joins, whose two ring aliases share one capacity
// bookkeeping slot.
func TestTimeJoinGrowthMatchMultisetSelf(t *testing.T) {
	const n = 5000
	const span = 2600
	const diff = 1
	arr := make([]TimedArrival, n)
	u := UniformSource(79)
	for i := range arr {
		arr[i] = TimedArrival{Stream: R, Key: u.Next() % 200, TS: uint64(i)}
	}
	want := bruteTimeMatches(arr, span, diff, true)

	got := map[Match]int{}
	j, err := NewTimeJoin(TimeJoinOptions{
		Span: span, Self: true, Diff: diff,
		OnMatch: func(m Match) { got[m]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		j.Push(a.Stream, a.Key, a.TS)
	}
	if j.WindowCount(R) <= 1024 {
		t.Fatalf("window count %d never outgrew the initial ring", j.WindowCount(R))
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct matches, oracle has %d", len(got), len(want))
	}
	for m, c := range want {
		if got[m] != c {
			t.Fatalf("match %+v count %d, oracle %d", m, got[m], c)
		}
	}
}

// An unknown StreamID panics inside the Push that carries it, with the id
// named, and leaves the join as it was: a later Push goes through.
func TestTimeJoinUnknownStreamPanicsAtCall(t *testing.T) {
	j, err := NewTimeJoin(TimeJoinOptions{Span: 100, Diff: 5})
	if err != nil {
		t.Fatal(err)
	}
	j.Push(R, 7, 1)
	func() {
		defer func() {
			if got := fmt.Sprint(recover()); got != "pimtree: unknown StreamID 2" {
				t.Fatalf("Push(StreamID(2)) panicked with %q", got)
			}
		}()
		j.Push(StreamID(2), 7, 2)
	}()
	j.Push(S, 7, 50)
	if j.Matches() != 1 || j.Tuples() != 2 {
		t.Fatalf("Matches=%d Tuples=%d after the rejected push, want 1 and 2", j.Matches(), j.Tuples())
	}
}

// A strict-mode Push whose timestamp regresses below the join's clock panics
// at the call with the Engine's disorder error, before its probe: OnMatch
// sees no match of the rejected tuple, so it and Matches() still agree. The
// clock is one for both streams, so a regression across streams is rejected
// like one within a stream.
func TestTimeJoinRegressPanicsBeforeProbe(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    StreamID
	}{{"same-stream", R}, {"cross-stream", S}} {
		t.Run(tc.name, func(t *testing.T) {
			seen := 0
			j, err := NewTimeJoin(TimeJoinOptions{Span: 100, Diff: 5, OnMatch: func(Match) { seen++ }})
			if err != nil {
				t.Fatal(err)
			}
			j.Push(S, 10, 10)
			j.Push(R, 10, 20)
			func() {
				defer func() {
					r := recover()
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrUnordered) || err.Error() != errNotSorted().Error() {
						t.Fatalf("Push at ts 15 after 20 panicked with %v, want %q", r, errNotSorted())
					}
				}()
				j.Push(tc.s, 11, 15)
			}()
			if seen != 1 || j.Matches() != 1 || j.Tuples() != 2 {
				t.Fatalf("OnMatch saw %d matches, Matches() = %d, Tuples() = %d; want 1, 1, 2", seen, j.Matches(), j.Tuples())
			}
			// The clock stays at 20: the session goes on from there.
			if n := j.Push(S, 12, 20); n != 1 {
				t.Fatalf("Push at the clock matched %d, want 1", n)
			}
		})
	}
}
