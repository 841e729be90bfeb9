package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// triple is one match identity: probing stream, probe sequence, matched
// sequence — the multiset the equivalence tests compare.
type triple struct {
	s    uint8
	p, m uint64
}

func sortTriples(ts []triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.s != b.s {
			return a.s < b.s
		}
		if a.p != b.p {
			return a.p < b.p
		}
		return a.m < b.m
	})
}

// serialOracle collects the match multiset of the single-threaded IBWJ.
func serialOracle(arr []stream.Arrival, wr, ws int, self bool, band join.Band) []triple {
	var out []triple
	join.IBWJSerial(arr, join.SerialConfig{
		WR: wr, WS: ws, Self: self, Band: band, Index: join.IndexBTree,
		Sink: func(s uint8, p, m uint64) { out = append(out, triple{s, p, m}) },
	})
	sortTriples(out)
	return out
}

// shardedRun collects the match multiset of the sharded runtime.
func shardedRun(t *testing.T, arr []stream.Arrival, cfg Config) ([]triple, join.Stats) {
	t.Helper()
	var mu sync.Mutex
	var out []triple
	cfg.Sink = func(s uint8, p, m uint64) {
		mu.Lock()
		out = append(out, triple{s, p, m})
		mu.Unlock()
	}
	st := Run(arr, cfg)
	sortTriples(out)
	if uint64(len(out)) != st.Matches {
		t.Fatalf("sink saw %d matches, stats counted %d", len(out), st.Matches)
	}
	return out, st
}

func equalTriples(a, b []triple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesSerial checks the core exactness claim across shard
// counts, batch sizes, and backends: the sharded runtime produces the
// identical match multiset as the single-threaded IBWJ.
func TestShardedMatchesSerial(t *testing.T) {
	const w = 256
	const n = 6000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(4), stream.NewUniform(5), 0.5).Take(n)
	want := serialOracle(arr, w, w, false, band)
	if len(want) == 0 {
		t.Fatal("oracle produced no matches; workload broken")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1, 7, 64} {
			got, _ := shardedRun(t, arr, Config{
				Shards: shards, BatchSize: batch,
				WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
			})
			if !equalTriples(got, want) {
				t.Fatalf("shards=%d batch=%d: %d matches, want %d (multiset differs)",
					shards, batch, len(got), len(want))
			}
		}
	}

	for _, kind := range []join.IndexKind{join.IndexIMTree, join.IndexBTree} {
		got, _ := shardedRun(t, arr, Config{
			Shards: 4, BatchSize: 16,
			WR: w, WS: w, Band: band, Index: kind,
		})
		if !equalTriples(got, want) {
			t.Fatalf("%v: match multiset differs from serial (%d vs %d)", kind, len(got), len(want))
		}
	}
}

// TestStripedDefaultMatchesSerial checks the default partitioner where it is
// easiest to get wrong: Diff leaves the stripes just over their minimum width,
// and keys cluster within two bands of a few stripe edges (and of the domain
// ends), so about half of all probes straddle an edge. Every backend, count
// and timed windows, two-stream and self-joins.
func TestStripedDefaultMatchesSerial(t *testing.T) {
	const (
		k    = 3
		n    = 3000
		w    = 128
		span = 300
	)
	// The largest Diff for which the default still deals k·2^10 stripes.
	diff := uint32((uint64(1<<32)/(stripeBands*k<<10) - 1) / 2)
	band := join.Band{Diff: diff}
	part := newStripedPartitioner(k, diff)
	if part.n != k<<10 {
		t.Fatalf("%d stripes, want %d", part.n, k<<10)
	}
	edges := []uint64{0, 1 << 32}
	for _, s := range []int{1, 2, 3, part.n / 2, part.n - 1} {
		edges = append(edges, uint64(rangeStart(s, part.n)))
	}
	rng := rand.New(rand.NewSource(17))
	key := func() uint32 {
		e := int64(edges[rng.Intn(len(edges))]) + rng.Int63n(4*int64(diff)+1) - 2*int64(diff)
		return uint32(max(0, min(e, 1<<32-1)))
	}
	count := func(self bool) []stream.Arrival {
		arr := make([]stream.Arrival, n)
		for i := range arr {
			if !self {
				arr[i].Stream = uint8(rng.Intn(2))
			}
			arr[i].Key = key()
		}
		return arr
	}
	timed := func(self bool) []join.TimedArrival {
		arr := make([]join.TimedArrival, n)
		ts := uint64(0)
		for i := range arr {
			ts += 1 + uint64(rng.Intn(4))
			arr[i] = join.TimedArrival{Key: key(), TS: ts}
			if !self {
				arr[i].Stream = uint8(rng.Intn(2))
			}
		}
		return arr
	}
	straddles := 0
	for range n {
		lo, hi := band.Range(key())
		if part.stripe(lo) != part.stripe(hi) {
			straddles++
		}
	}
	if straddles < n/4 {
		t.Fatalf("%d of %d bands straddle a stripe edge: the workload misses the edges", straddles, n)
	}

	kinds := []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree}
	for _, self := range []bool{false, true} {
		arr := count(self)
		ws := w
		if self {
			ws = 0
		}
		want := serialOracle(arr, w, ws, self, band)
		tarr := timed(self)
		twant := timedOracle(tarr, span, band, self)
		if len(want) == 0 || len(twant) == 0 {
			t.Fatalf("self=%v: oracle produced %d count and %d timed matches", self, len(want), len(twant))
		}
		for _, kind := range kinds {
			got, _ := shardedRun(t, arr, Config{
				Shards: k, BatchSize: 8, WR: w, WS: w, Self: self, Band: band, Index: kind,
			})
			if !equalTriples(got, want) {
				t.Fatalf("count %v self=%v: %d matches, want %d (multiset differs)", kind, self, len(got), len(want))
			}
			tgot := make(map[timedMatch]int)
			RunTimed(tarr, Config{
				Shards: k, BatchSize: 8, Span: span, MaxLive: 2 * span, Self: self,
				Band: band, Index: kind, Sink: collectTimed(tgot),
			})
			diffMultisets(t, fmt.Sprintf("timed %v self=%v", kind, self), twant, tgot)
		}
	}
}

// TestShardedSelfJoin checks self-join exactness (one stream, one window,
// probes must exclude the probing tuple itself).
func TestShardedSelfJoin(t *testing.T) {
	const w = 128
	const n = 5000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewSelfStream(stream.NewUniform(9)).Take(n)
	want := serialOracle(arr, w, 0, true, band)
	got, _ := shardedRun(t, arr, Config{
		Shards: 4, BatchSize: 8, WR: w, Self: true, Band: band, Index: join.IndexPIMTree,
	})
	if !equalTriples(got, want) {
		t.Fatalf("self-join multiset differs: %d vs %d", len(got), len(want))
	}
}

// TestShardedAsymmetricWindows checks WR != WS and an asymmetric stream mix.
func TestShardedAsymmetricWindows(t *testing.T) {
	const wr, ws = 64, 512
	const n = 5000
	band := join.Band{Diff: stream.UniformDiff(ws, 2)}
	arr := stream.NewInterleaver(13, stream.NewUniform(14), stream.NewUniform(15), 0.3).Take(n)
	want := serialOracle(arr, wr, ws, false, band)
	got, _ := shardedRun(t, arr, Config{
		Shards: 3, BatchSize: 5, WR: wr, WS: ws, Band: band, Index: join.IndexPIMTree,
	})
	if !equalTriples(got, want) {
		t.Fatalf("asymmetric multiset differs: %d vs %d", len(got), len(want))
	}
}

// TestShardedSkewWithQuantilePartitioner checks exactness and load balance
// under a Gaussian key distribution with quantile shard boundaries.
func TestShardedSkewWithQuantilePartitioner(t *testing.T) {
	const w = 256
	const n = 6000
	gen := func(seed int64) *stream.Gaussian { return stream.NewGaussian(seed, 0.5, 0.125) }
	sample := make([]uint32, 1<<12)
	sgen := gen(99)
	for i := range sample {
		sample[i] = sgen.Next()
	}
	part := NewQuantilePartitioner(sample, 4)
	band := join.Band{Diff: stream.CalibrateDiff(func(s int64) stream.KeyGen { return gen(s) }, w, 2)}
	arr := stream.NewInterleaver(21, gen(22), gen(23), 0.5).Take(n)
	want := serialOracle(arr, w, w, false, band)

	var mu sync.Mutex
	var got []triple
	r := NewRouter(Config{
		Part: part, BatchSize: 16, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
		Sink: func(s uint8, p, m uint64) {
			mu.Lock()
			got = append(got, triple{s, p, m})
			mu.Unlock()
		},
	}, n)
	for _, a := range arr {
		r.Push(a)
	}
	r.Close()
	sortTriples(got)
	if !equalTriples(got, want) {
		t.Fatalf("skewed multiset differs: %d vs %d", len(got), len(want))
	}

	// Quantile boundaries should spread probe work across all shards.
	for s, c := range r.probeRouted {
		if c == 0 {
			t.Fatalf("shard %d received no probes under quantile partitioning: %v", s, r.probeRouted)
		}
	}
}

// TestProbeFanOut checks that a probe is routed to exactly the shards whose
// range intersects [key-Diff, key+Diff].
func TestProbeFanOut(t *testing.T) {
	const k = 4
	part := NewRangePartitioner(k)
	push := func(diff uint32, key uint32) []int {
		r := NewRouter(Config{
			Part: part, BatchSize: 1 << 20,
			WR: 16, WS: 16, Band: join.Band{Diff: diff}, Index: join.IndexPIMTree,
		}, 1)
		r.Push(stream.Arrival{Stream: stream.StreamR, Key: key})
		counts := append([]int(nil), r.probeRouted...)
		r.Close()
		return counts
	}
	expect := func(diff, key uint32) []int {
		lo, hi := join.Band{Diff: diff}.Range(key)
		out := make([]int, k)
		for s := 0; s < k; s++ {
			slo, shi := part.Range(s)
			if hi >= slo && lo <= shi { // interval intersection
				out[s] = 1
			}
		}
		return out
	}

	boundary := rangeStart(1, k) // first key of shard 1
	cases := []struct{ diff, key uint32 }{
		{0, 100},                    // interior, no fan-out
		{0, boundary},               // exactly on a boundary
		{10, boundary - 5},          // straddles shards 0 and 1
		{10, boundary + 5},          // fits entirely in shard 1
		{1 << 29, boundary},         // wide band, straddles
		{^uint32(0), 1 << 31},       // full-domain band: all shards
		{50, ^uint32(0) - 10},       // saturates at the top edge
		{50, 10},                    // saturates at zero
		{0, ^uint32(0)},             // top key, last shard only
		{1 << 30, rangeStart(3, k)}, // reaches down one shard
	}
	for _, c := range cases {
		got := push(c.diff, c.key)
		want := expect(c.diff, c.key)
		for s := 0; s < k; s++ {
			if got[s] != want[s] {
				t.Fatalf("diff=%d key=%d: probe routed to shards %v, want %v", c.diff, c.key, got, want)
			}
		}
	}
}

// TestBatchFlushOnSize checks that a shard's queue flushes when the batch
// fills, with no idle flush in between.
func TestBatchFlushOnSize(t *testing.T) {
	r := NewRouter(Config{
		Shards: 4, BatchSize: 4,
		WR: 1 << 10, WS: 1 << 10, Band: join.Band{Diff: 0}, Index: join.IndexPIMTree,
	}, 16)
	// Key 0 lives in shard 0; with Diff 0 each arrival enqueues one probe
	// and one insert there, so two arrivals fill a 4-op batch.
	for i := 0; i < 2; i++ {
		r.Push(stream.Arrival{Stream: stream.StreamR, Key: 0})
	}
	if size, idle := r.FlushCounts(); size != 1 || idle != 0 {
		t.Fatalf("after 4 ops: size flushes = %d, idle flushes = %d; want 1, 0", size, idle)
	}
	r.Push(stream.Arrival{Stream: stream.StreamR, Key: 0})
	if size, _ := r.FlushCounts(); size != 1 {
		t.Fatalf("half-full batch flushed early: %d size flushes", size)
	}
	r.Close()
}

// TestIdleLaneFlushesAtCallEnd checks that a producer call's closing
// FlushIdle ships a partial batch whose lane is empty, so a match propagates
// without waiting for a full batch, a Drain, or Close.
func TestIdleLaneFlushesAtCallEnd(t *testing.T) {
	r := NewRouter(Config{
		Shards: 4, BatchSize: 1 << 20, // size flushing effectively disabled
		WR: 8, WS: 8, Band: join.Band{Diff: 0}, Index: join.IndexPIMTree,
	}, 64)
	// One call pushes a matching pair: R key 0 is inserted into shard 0,
	// then S key 0 probes it there. All four ops sit in shard 0's batch.
	r.Push(stream.Arrival{Stream: stream.StreamR, Key: 0})
	r.Push(stream.Arrival{Stream: stream.StreamS, Key: 0})
	r.FlushIdle()
	if n := len(r.pend[0]); n != 0 {
		t.Fatalf("shard 0 still holds %d pending ops after the call-end flush", n)
	}
	if _, idle := r.FlushCounts(); idle < 1 {
		t.Fatalf("idle flushes = %d, want >= 1", idle)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.MatchCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("match never propagated after the idle flush")
		}
		time.Sleep(time.Millisecond)
	}
	r.Close()
}

// TestMergeStagePreservesArrivalOrder checks that the sink observes matches
// grouped by probe in global arrival order, even with many shards racing.
func TestMergeStagePreservesArrivalOrder(t *testing.T) {
	const w = 128
	const n = 8000
	band := join.Band{Diff: stream.UniformDiff(w, 4)}
	arr := stream.NewInterleaver(31, stream.NewUniform(32), stream.NewUniform(33), 0.5).Take(n)

	// Map each (stream, probeSeq) to its arrival ordinal.
	ordinal := make(map[triple]int, n)
	heads := [2]uint64{}
	for i, a := range arr {
		ordinal[triple{a.Stream, heads[a.Stream], 0}] = i
		heads[a.Stream]++
	}

	var mu sync.Mutex
	last := -1
	violations := 0
	matches := 0
	Run(arr, Config{
		Shards: 8, BatchSize: 4, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
		Sink: func(s uint8, p, m uint64) {
			mu.Lock()
			matches++
			ord := ordinal[triple{s, p, 0}]
			if ord < last {
				violations++
			}
			last = ord
			mu.Unlock()
		},
	})
	if matches == 0 {
		t.Fatal("no matches produced")
	}
	if violations > 0 {
		t.Fatalf("%d of %d matches propagated out of arrival order", violations, matches)
	}
}

// TestTinyWindows exercises the smallest windows (heavy expiry churn).
func TestTinyWindows(t *testing.T) {
	const n = 3000
	arr := stream.NewInterleaver(41, stream.NewUniform(42), stream.NewUniform(43), 0.5).Take(n)
	// Diff spanning a quarter of the key domain makes matches likely even
	// with two-tuple windows.
	band := join.Band{Diff: 1 << 29}
	want := serialOracle(arr, 2, 2, false, band)
	got, _ := shardedRun(t, arr, Config{
		Shards: 4, BatchSize: 3, WR: 2, WS: 2, Band: band, Index: join.IndexPIMTree,
	})
	if !equalTriples(got, want) {
		t.Fatalf("tiny-window multiset differs: %d vs %d", len(got), len(want))
	}
}

// TestRouterStats checks tuple and merge accounting.
func TestRouterStats(t *testing.T) {
	const w = 256
	const n = 4000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(51, stream.NewUniform(52), stream.NewUniform(53), 0.5).Take(n)
	_, st := shardedRun(t, arr, Config{
		Shards: 2, BatchSize: 16, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
	})
	if st.Tuples != n {
		t.Fatalf("Tuples = %d, want %d", st.Tuples, n)
	}
	if st.Merges == 0 {
		t.Fatal("PIM-Tree shards never merged over 4000 tuples with w=256")
	}
}
