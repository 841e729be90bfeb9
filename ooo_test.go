package pimtree

import (
	"context"
	"testing"

	"pimtree/internal/ooo"
)

// matchMultiset collects (ProbeStream, ProbeSeq, MatchSeq) triples.
type matchMultiset map[Match]int

func (m matchMultiset) add(x Match) { m[x]++ }

func sameMultiset(t *testing.T, name string, want, got matchMultiset) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct matches, oracle has %d", name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: match %+v count %d, oracle %d", name, k, got[k], c)
		}
	}
}

// timeOracle pushes a timestamp-sorted sequence through the strict serial
// TimeJoin and returns its match multiset — the reference every out-of-order
// configuration must reproduce.
func timeOracle(t *testing.T, arr []TimedArrival, span uint64, diff uint32, self bool) matchMultiset {
	t.Helper()
	want := matchMultiset{}
	j, err := NewTimeJoin(TimeJoinOptions{Span: span, Diff: diff, Self: self, OnMatch: want.add})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arr {
		j.Push(a.Stream, a.Key, a.TS)
	}
	return want
}

// reorderTimed runs a whole arrival slice through the reorder buffer and
// returns the admitted (timestamp-ordered) sequence plus the late/disorder
// accounting — the admission order every buffered runtime must reproduce.
func reorderTimed(arrivals []TimedArrival, slack uint64, p LatePolicy) (out []TimedArrival, lateDropped, maxDisorder uint64) {
	r := ooo.New(slack, p.oooPolicy(), nil)
	emit := func(t ooo.Tuple) {
		out = append(out, TimedArrival{Stream: StreamID(t.Stream), Key: t.Key, TS: t.TS})
	}
	for _, a := range arrivals {
		r.Push(ooo.Tuple{Stream: uint8(a.Stream), Key: a.Key, TS: a.TS}, emit)
	}
	r.Flush(emit)
	return out, r.LateDropped(), r.MaxDisorder()
}

// runShardedTime pushes the timed arrivals through one ModeShardedTime
// session on cfg and returns its match multiset and final statistics.
func runShardedTime(t *testing.T, arr []TimedArrival, cfg Config) (matchMultiset, RunStats) {
	t.Helper()
	got := matchMultiset{}
	cfg.Mode = ModeShardedTime
	cfg.OnMatch = got.add
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]Arrival, len(arr))
	for i, a := range arr {
		in[i] = Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
	}
	if err := e.PushBatch(in); err != nil {
		t.Fatal(err)
	}
	st, err := e.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return got, st
}

func oooWorkload(t *testing.T, self bool) (sorted []TimedArrival, span uint64) {
	t.Helper()
	n := 20000
	if testing.Short() {
		n = 6000
	}
	span = uint64(2000)
	var arr []Arrival
	if self {
		arr = SelfArrivals(UniformSource(91), n)
	} else {
		arr = Interleave(90, UniformSource(91), UniformSource(92), 0.5, n)
	}
	for i := range arr {
		arr[i].Key %= 1 << 14 // dense keys so the band produces matches
	}
	return TimestampArrivals(93, arr, 4), span
}

// Disorder within Slack must be invisible: the sharded time runtime joins
// the shuffled stream exactly as the timestamp-sorted serial oracle, with
// nothing late. This is the tentpole acceptance property, run under -race in
// CI's short mode and at full size nightly.
func TestOutOfOrderWithinSlackMatchesOracle(t *testing.T) {
	const diff = 3
	for _, self := range []bool{false, true} {
		name := "two-stream"
		if self {
			name = "self"
		}
		t.Run(name, func(t *testing.T) {
			sorted, span := oooWorkload(t, self)
			want := timeOracle(t, sorted, span, diff, self)
			const slack = 96
			shuffled := ShuffleWithinSlack(97, sorted, slack)

			got, st := runShardedTime(t, shuffled, Config{
				Shards: 4, BatchSize: 16, Span: span, MaxLive: 4096, Diff: diff,
				Self: self, Slack: slack, LatePolicy: LateDrop,
			})
			if st.LateDropped != 0 || st.MaxObservedDisorder == 0 || st.MaxObservedDisorder > slack {
				t.Fatalf("sharded-time late=%d disorder=%d", st.LateDropped, st.MaxObservedDisorder)
			}
			sameMultiset(t, "sharded-time", want, got)
		})
	}
}

// Beyond-slack disorder: the sharded time runtime must agree with the
// oracle over the admitted sequence and report the reorder buffer's
// LateDropped count.
func TestOutOfOrderBeyondSlack(t *testing.T) {
	const diff = 3
	sorted, span := oooWorkload(t, false)
	shuffled := ShuffleWithinSlack(101, sorted, 256) // disorder up to 256
	const slack = 24                                 // admit far less

	for _, pol := range []LatePolicy{LateDrop, LateEmit} {
		t.Run(pol.String(), func(t *testing.T) {
			admitted, wantLate, maxDis := reorderTimed(shuffled, slack, pol)
			if pol == LateDrop && wantLate == 0 {
				t.Fatal("workload produced no beyond-slack tuples; test is vacuous")
			}
			if maxDis <= slack {
				t.Fatalf("max disorder %d not beyond slack", maxDis)
			}
			want := timeOracle(t, admitted, span, diff, false)

			got, st := runShardedTime(t, shuffled, Config{
				Shards: 3, Span: span, MaxLive: 4096, Diff: diff,
				Slack: slack, LatePolicy: pol,
			})
			if st.LateDropped != wantLate {
				t.Fatalf("sharded-time LateDropped = %d, want %d", st.LateDropped, wantLate)
			}
			sameMultiset(t, "sharded-time", want, got)
		})
	}
}

// LateCall hands late tuples to the side channel; the join output matches
// LateDrop's and the callback sees every dropped tuple.
func TestOutOfOrderLateCallback(t *testing.T) {
	const diff = 3
	sorted, span := oooWorkload(t, false)
	shuffled := ShuffleWithinSlack(103, sorted, 200)
	const slack = 16

	var lates []TimedArrival
	var worst uint64
	got, st := runShardedTime(t, shuffled, Config{
		Shards: 2, Span: span, MaxLive: 4096, Diff: diff,
		Slack: slack, LatePolicy: LateCall,
		OnLate: func(a TimedArrival, lateness uint64) {
			lates = append(lates, a)
			if lateness > worst {
				worst = lateness
			}
		},
	})
	if uint64(len(lates)) != st.LateDropped || len(lates) == 0 {
		t.Fatalf("callback saw %d lates, LateDropped = %d", len(lates), st.LateDropped)
	}
	if worst <= slack {
		t.Fatalf("worst lateness %d not beyond slack", worst)
	}
	admitted, _, _ := reorderTimed(shuffled, slack, LateDrop)
	sameMultiset(t, "LateCall", timeOracle(t, admitted, span, diff, false), got)
}

func TestOutOfOrderValidation(t *testing.T) {
	// Strict mode rejects unsorted batches instead of corrupting results,
	// and accepts them once a policy is set.
	unsorted := []Arrival{{Stream: R, Key: 1, TS: 10}, {Stream: S, Key: 2, TS: 5}}
	for _, pol := range []LatePolicy{LateNone, LateDrop} {
		e, err := Open(Config{Mode: ModeShardedTime, Span: 10, MaxLive: 8, LatePolicy: pol})
		if err != nil {
			t.Fatal(err)
		}
		err = e.PushBatch(unsorted)
		e.Close(context.Background())
		if (err == nil) != (pol != LateNone) {
			t.Fatalf("%s: PushBatch of unsorted input returned %v", pol, err)
		}
	}
	for name, cfg := range map[string]Config{
		"zero span":    {Mode: ModeShardedTime, MaxLive: 8},
		"zero MaxLive": {Mode: ModeShardedTime, Span: 10},
	} {
		if _, err := Open(cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// Every backend must reproduce the oracle on disordered input through the
// sharded time runtime.
func TestShardedTimeBackends(t *testing.T) {
	const diff = 2
	n := 8000
	if testing.Short() {
		n = 3000
	}
	arr := Interleave(110, UniformSource(111), UniformSource(112), 0.5, n)
	for i := range arr {
		arr[i].Key %= 1 << 12
	}
	sorted := TimestampArrivals(113, arr, 4)
	span := uint64(1500)
	want := timeOracle(t, sorted, span, diff, false)
	shuffled := ShuffleWithinSlack(114, sorted, 64)

	for _, b := range []Backend{PIMTree, IMTree, BPlusTree} {
		got, st := runShardedTime(t, shuffled, Config{
			Shards: 3, Span: span, MaxLive: 2048, Diff: diff, Backend: b,
			Slack: 64, LatePolicy: LateDrop,
		})
		if st.LateDropped != 0 {
			t.Fatalf("%v: dropped %d within slack", b, st.LateDropped)
		}
		sameMultiset(t, b.String(), want, got)
	}
}
