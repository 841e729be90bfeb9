package shard

import (
	"math/rand"
	"sort"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/ooo"
	"pimtree/internal/stream"
)

// timedMatch identifies one timed join result for multiset comparison.
type timedMatch struct {
	stream uint8
	probe  uint64
	match  uint64
}

// timedOracle computes the match multiset of a timestamp-ordered arrival
// sequence by brute force: per-stream sequence numbers in admission order,
// each probe matching every earlier opposite-stream tuple within the band
// and within span (now - ts < span).
func timedOracle(arrivals []join.TimedArrival, span uint64, band join.Band, self bool) map[timedMatch]int {
	out := make(map[timedMatch]int)
	type tup struct {
		stream uint8
		key    uint32
		ts     uint64
		seq    uint64
	}
	var hist []tup
	seqs := [2]uint64{}
	sid := func(s uint8) uint8 {
		if self {
			return 0
		}
		return s
	}
	for _, a := range arrivals {
		own := sid(a.Stream)
		seq := seqs[own]
		seqs[own]++
		for _, h := range hist {
			if !self && h.stream == own {
				continue
			}
			if a.TS-h.ts >= span {
				continue
			}
			if !band.Matches(a.Key, h.key) {
				continue
			}
			out[timedMatch{stream: a.Stream, probe: seq, match: h.seq}]++
		}
		hist = append(hist, tup{stream: own, key: a.Key, ts: a.TS, seq: seq})
	}
	return out
}

// timedWorkload builds a two-stream timed arrival sequence with irregular,
// strictly increasing event times. Strict monotonicity keeps the
// timestamp-sorted oracle well-defined under bounded-disorder shuffles: with
// duplicate timestamps the stable re-sort of a shuffle cannot recover the
// original tie order, so equal-ts inputs have no single sorted oracle.
func timedWorkload(seed int64, n int, keyMod uint32) []join.TimedArrival {
	rng := rand.New(rand.NewSource(seed))
	out := make([]join.TimedArrival, n)
	ts := uint64(0)
	for i := range out {
		ts += 1 + uint64(rng.Intn(4))
		out[i] = join.TimedArrival{
			Stream: uint8(rng.Intn(2)),
			Key:    rng.Uint32() % keyMod,
			TS:     ts,
		}
	}
	return out
}

// shuffleWithin permutes a timed sequence with bounded disorder: stable sort
// by ts + U[0, slack].
func shuffleWithin(seed int64, arr []join.TimedArrival, slack uint64) []join.TimedArrival {
	rng := rand.New(rand.NewSource(seed))
	type kt struct {
		t join.TimedArrival
		k uint64
	}
	kts := make([]kt, len(arr))
	for i, t := range arr {
		kts[i] = kt{t: t, k: t.TS + uint64(rng.Int63n(int64(slack)+1))}
	}
	sort.SliceStable(kts, func(i, j int) bool { return kts[i].k < kts[j].k })
	out := make([]join.TimedArrival, len(arr))
	for i := range kts {
		out[i] = kts[i].t
	}
	return out
}

func collectTimed(got map[timedMatch]int) join.MatchSink {
	return func(s uint8, probe, match uint64) {
		got[timedMatch{stream: s, probe: probe, match: match}]++
	}
}

func diffMultisets(t *testing.T, name string, want, got map[timedMatch]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d distinct matches, oracle has %d", name, len(got), len(want))
	}
	for m, c := range want {
		if got[m] != c {
			t.Fatalf("%s: match %+v count %d, oracle %d", name, m, got[m], c)
		}
	}
}

// The timed sharded runtime must produce the oracle multiset on sorted
// input, across backends, shard counts, and batch sizes.
func TestTimedShardedMatchesOracle(t *testing.T) {
	const n = 3000
	const span = 200
	arr := timedWorkload(11, n, 2048)
	band := join.Band{Diff: 16}
	want := timedOracle(arr, span, band, false)

	backends := []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree}
	for _, kind := range backends {
		for _, shards := range []int{1, 3, 8} {
			for _, batch := range []int{1, 64} {
				got := make(map[timedMatch]int)
				var st join.Stats
				cfg := Config{
					Shards: shards, BatchSize: batch,
					Span: span, MaxLive: 256,
					Band: band, Index: kind,
					Sink: collectTimed(got),
				}
				st = RunTimed(arr, cfg)
				if st.Tuples != n {
					t.Fatalf("%v/%d/%d: admitted %d of %d", kind, shards, batch, st.Tuples, n)
				}
				diffMultisets(t, kind.String(), want, got)
			}
		}
	}
}

func TestTimedShardedSelfJoin(t *testing.T) {
	const n = 2000
	const span = 150
	rng := rand.New(rand.NewSource(5))
	arr := make([]join.TimedArrival, n)
	ts := uint64(0)
	for i := range arr {
		ts += uint64(rng.Intn(4))
		arr[i] = join.TimedArrival{Stream: stream.StreamR, Key: rng.Uint32() % 512, TS: ts}
	}
	band := join.Band{Diff: 3}
	want := timedOracle(arr, span, band, true)
	got := make(map[timedMatch]int)
	var st join.Stats
	cfg := Config{
		Shards: 4, Span: span, MaxLive: 256, Self: true,
		Band: band, Index: join.IndexPIMTree,
		Sink: collectTimed(got),
	}
	st = RunTimed(arr, cfg)
	diffMultisets(t, "self", want, got)
	if st.Matches == 0 {
		t.Fatal("no matches produced")
	}
}

// Disorder within the slack must be invisible: the router admits the
// shuffled stream and produces the oracle multiset of the sorted one.
func TestTimedShardedAdmitsDisorder(t *testing.T) {
	const n = 3000
	const span = 300
	const slack = 64
	arr := timedWorkload(23, n, 1024)
	band := join.Band{Diff: 8}
	want := timedOracle(arr, span, band, false)
	shuffled := shuffleWithin(29, arr, slack)

	got := make(map[timedMatch]int)
	var st join.Stats
	cfg := Config{
		Shards: 5, BatchSize: 16,
		Span: span, MaxLive: 512,
		Band: band, Index: join.IndexPIMTree,
		Slack: slack, Late: ooo.Drop,
		Sink: collectTimed(got),
	}
	st = RunTimed(shuffled, cfg)
	if st.LateDropped != 0 {
		t.Fatalf("disorder within slack dropped %d tuples", st.LateDropped)
	}
	if st.MaxDisorder > slack {
		t.Fatalf("MaxDisorder %d exceeds slack %d", st.MaxDisorder, slack)
	}
	diffMultisets(t, "disorder", want, got)
}

// Beyond-slack disorder must surface in LateDropped, and the join must equal
// the oracle over the admitted (released) sequence.
func TestTimedShardedLateDrop(t *testing.T) {
	const n = 2000
	const span = 300
	arr := timedWorkload(31, n, 1024)
	shuffled := shuffleWithin(37, arr, 128) // disorder up to 128
	const slack = 16                        // admit far less

	// Compute the admitted sequence with a standalone reorder buffer.
	reord := ooo.New(slack, ooo.Drop, nil)
	var admitted []join.TimedArrival
	emit := func(tt ooo.Tuple) {
		admitted = append(admitted, join.TimedArrival{Stream: tt.Stream, Key: tt.Key, TS: tt.TS})
	}
	for _, a := range shuffled {
		reord.Push(ooo.Tuple{Stream: a.Stream, Key: a.Key, TS: a.TS}, emit)
	}
	reord.Flush(emit)
	if reord.LateDropped() == 0 {
		t.Fatal("workload produced no beyond-slack tuples; test is vacuous")
	}

	band := join.Band{Diff: 8}
	want := timedOracle(admitted, span, band, false)
	got := make(map[timedMatch]int)
	var st join.Stats
	cfg := Config{
		Shards: 4, Span: span, MaxLive: 512,
		Band: band, Index: join.IndexPIMTree,
		Slack: slack, Late: ooo.Drop,
		Sink: collectTimed(got),
	}
	st = RunTimed(shuffled, cfg)
	if st.LateDropped != reord.LateDropped() {
		t.Fatalf("LateDropped = %d, want %d", st.LateDropped, reord.LateDropped())
	}
	if st.Tuples != len(admitted) {
		t.Fatalf("admitted %d, want %d", st.Tuples, len(admitted))
	}
	diffMultisets(t, "latedrop", want, got)
}

// A band wider than a shard's key range must fan probes out across several
// shards and still be exact.
func TestTimedShardedWideBandFanOut(t *testing.T) {
	const n = 1500
	const span = 100
	rng := rand.New(rand.NewSource(43))
	arr := make([]join.TimedArrival, n)
	ts := uint64(0)
	for i := range arr {
		ts += uint64(rng.Intn(3))
		// Keys across the full uint32 domain so equal-width shards all own
		// traffic.
		arr[i] = join.TimedArrival{Stream: uint8(rng.Intn(2)), Key: rng.Uint32(), TS: ts}
	}
	// Band half-width of a quarter domain: every probe spans multiple of the
	// 8 equal-width shards.
	band := join.Band{Diff: 1 << 30}
	want := timedOracle(arr, span, band, false)
	got := make(map[timedMatch]int)
	var st join.Stats
	cfg := Config{
		Shards: 8, Span: span, MaxLive: 256,
		Band: band, Index: join.IndexPIMTree,
		Sink: collectTimed(got),
	}
	st = RunTimed(arr, cfg)
	diffMultisets(t, "fanout", want, got)
	if st.Matches == 0 {
		t.Fatal("wide band produced no matches")
	}
}

func TestTimedRouterValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		NewRouter(cfg, 1)
	}
	mustPanic("zero span", Config{Timed: true, MaxLive: 8, Shards: 1})
	mustPanic("zero maxlive", Config{Timed: true, Span: 10, Shards: 1})
	// PushTimed on a count router must panic too.
	r := NewRouter(Config{WR: 8, WS: 8, Shards: 1, Index: join.IndexPIMTree}, 1)
	defer r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("PushTimed on count router: no panic")
		}
	}()
	r.PushTimed(0, 1, 1)
}
