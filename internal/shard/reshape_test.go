package shard

import (
	"sync"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/ooo"
	"pimtree/internal/stream"
)

// reshapeRun drives a Router directly so structural reshapes can be injected
// at exact stream positions: at(i) is invoked before pushing arrival i.
func reshapeRun(t *testing.T, arr []stream.Arrival, cfg Config, at func(r *Router, i int)) ([]triple, join.Stats) {
	t.Helper()
	var mu sync.Mutex
	var out []triple
	cfg.Sink = func(s uint8, p, m uint64) {
		mu.Lock()
		out = append(out, triple{s, p, m})
		mu.Unlock()
	}
	r := NewRouter(cfg, len(arr))
	for i, a := range arr {
		at(r, i)
		r.Push(a)
	}
	st := r.Close()
	sortTriples(out)
	if uint64(len(out)) != st.Matches {
		t.Fatalf("sink saw %d matches, stats counted %d", len(out), st.Matches)
	}
	return out, st
}

// TestReshapeGrowShrinkMatchesSerial is the correctness bar for the live
// control plane: a mid-stream shard-count reshape — growing and then
// shrinking — must leave the match multiset identical to the single-threaded
// IBWJ, for every backend.
func TestReshapeGrowShrinkMatchesSerial(t *testing.T) {
	const w = 192
	const n = 6000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(4), stream.NewUniform(5), 0.5).Take(n)
	want := serialOracle(arr, w, w, false, band)
	if len(want) == 0 {
		t.Fatal("oracle produced no matches; workload broken")
	}

	backends := []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree}
	for _, kind := range backends {
		got, st := reshapeRun(t, arr, Config{
			Shards: 2, BatchSize: 16,
			WR: w, WS: w, Band: band, Index: kind,
		}, func(r *Router, i int) {
			switch i {
			case n / 3:
				r.Reshape(Reshape{Shards: 6})
			case 2 * n / 3:
				r.Reshape(Reshape{Shards: 2})
			}
		})
		if !equalTriples(got, want) {
			t.Fatalf("%v: reshaped multiset differs from serial (%d vs %d)", kind, len(got), len(want))
		}
		// Merge accounting must survive the engine-set swap (banked by
		// reshard); only the merging backends produce any.
		if (kind == join.IndexPIMTree || kind == join.IndexIMTree) && st.Merges == 0 {
			t.Fatalf("%v: merge stats lost across reshape", kind)
		}
	}
}

// A reshape epoch in the middle of a self-join (one stream, aliased window
// slots) must also be exact.
func TestReshapeSelfJoin(t *testing.T) {
	const w = 128
	const n = 4000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewSelfStream(stream.NewUniform(9)).Take(n)
	want := serialOracle(arr, w, 0, true, band)
	got, _ := reshapeRun(t, arr, Config{
		Shards: 3, BatchSize: 8, WR: w, Self: true, Band: band, Index: join.IndexPIMTree,
	}, func(r *Router, i int) {
		if i == n/2 {
			r.Reshape(Reshape{Shards: 5})
		}
	})
	if !equalTriples(got, want) {
		t.Fatalf("self-join reshape multiset differs (%d vs %d)", len(got), len(want))
	}
}

// Asymmetric windows exercise per-slot migration watermarks: the short window
// has expired far more tuples than the long one at the reshape barrier.
func TestReshapeAsymmetricWindows(t *testing.T) {
	const wr, ws = 64, 512
	const n = 5000
	band := join.Band{Diff: stream.UniformDiff(ws, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(7), stream.NewUniform(8), 0.5).Take(n)
	want := serialOracle(arr, wr, ws, false, band)
	got, _ := reshapeRun(t, arr, Config{
		Shards: 4, BatchSize: 16, WR: wr, WS: ws, Band: band, Index: join.IndexPIMTree,
	}, func(r *Router, i int) {
		if i == n/2 {
			r.Reshape(Reshape{Shards: 2})
		}
	})
	if !equalTriples(got, want) {
		t.Fatalf("asymmetric reshape multiset differs (%d vs %d)", len(got), len(want))
	}
}

// Swapping batch size and ring capacity mid-stream must not change the
// multiset, and the new capacity must actually take (backpressure still
// works with a ring smaller than the input).
func TestReshapeBatchAndCapacitySwap(t *testing.T) {
	const w = 128
	const n = 5000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(4), stream.NewUniform(5), 0.5).Take(n)
	want := serialOracle(arr, w, w, false, band)

	var mu sync.Mutex
	var out []triple
	r := NewRouter(Config{
		Shards: 4, BatchSize: 64, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
		Sink: func(s uint8, p, m uint64) {
			mu.Lock()
			out = append(out, triple{s, p, m})
			mu.Unlock()
		},
	}, 1024)
	for i, a := range arr {
		if i == n/3 {
			r.Reshape(Reshape{BatchSize: 3, Capacity: 256})
			if r.capN != 256 {
				t.Fatalf("capacity swap did not take: capN=%d", r.capN)
			}
			if r.cfg.BatchSize != 3 {
				t.Fatalf("batch swap did not take: %d", r.cfg.BatchSize)
			}
		}
		if i == 2*n/3 {
			r.Reshape(Reshape{BatchSize: 128, Capacity: 2048, Shards: 2})
		}
		r.Push(a)
	}
	st := r.Close()
	sortTriples(out)
	if uint64(len(out)) != st.Matches {
		t.Fatalf("sink saw %d matches, stats counted %d", len(out), st.Matches)
	}
	if !equalTriples(out, want) {
		t.Fatalf("batch/capacity reshape multiset differs (%d vs %d)", len(out), len(want))
	}
	if r.Reshapes() != 2 {
		t.Fatalf("Reshapes() = %d, want 2", r.Reshapes())
	}
}

// Timed-mode reshape: the watermark state must carry across the engine-set
// swap, so a reshape in the middle of a timed run keeps the oracle multiset.
// The reorder buffer is deliberately untouched by Reshape — this test runs
// with disorder so buffered tuples straddle the reshape barrier.
func TestReshapeTimedMatchesOracle(t *testing.T) {
	const n = 3000
	const span = 200
	const slack = 32
	arr := timedWorkload(17, n, 2048)
	band := join.Band{Diff: 16}
	want := timedOracle(arr, span, band, false)
	shuffled := shuffleWithin(19, arr, slack)

	got := make(map[timedMatch]int)
	cfg := Config{
		Timed:  true,
		Shards: 2, BatchSize: 16,
		Span: span, MaxLive: 256,
		Band: band, Index: join.IndexPIMTree,
		Slack: slack, Late: ooo.Drop,
		Sink: collectTimed(got),
	}
	r := NewRouter(cfg, n)
	for i, a := range shuffled {
		switch i {
		case n / 3:
			r.Reshape(Reshape{Shards: 5})
		case 2 * n / 3:
			r.Reshape(Reshape{Shards: 3, BatchSize: 4})
		}
		r.PushTimed(a.Stream, a.Key, a.TS)
	}
	st := r.Close()
	if st.LateDropped != 0 {
		t.Fatalf("reshape turned %d buffered tuples late", st.LateDropped)
	}
	if st.Tuples != n {
		t.Fatalf("admitted %d of %d", st.Tuples, n)
	}
	diffMultisets(t, "timed reshape", want, got)
}

// stepSkewArrivals builds a two-way workload whose keys live in a narrow hot
// band that jumps location every period tuples. Both streams use the same
// generator seed so their hot bands stay (approximately) co-located and the
// join produces matches.
func stepSkewArrivals(seed int64, n, period int) []stream.Arrival {
	return stream.NewInterleaver(seed,
		stream.NewStepSkew(seed+1, 1.0/16, period),
		stream.NewStepSkew(seed+1, 1.0/16, period), 0.5).Take(n)
}

// Repeated grow and shrink epochs migrate the live windows back and forth
// mid-stream; every backend must keep the serial multiset, on uniform keys
// and on a hot band that jumps.
func TestReshapeEpochsMultiset(t *testing.T) {
	const w = 256
	const n = 8000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	workloads := map[string][]stream.Arrival{
		"uniform":   stream.NewInterleaver(61, stream.NewUniform(62), stream.NewUniform(63), 0.5).Take(n),
		"step-skew": stepSkewArrivals(71, n, n/5),
	}
	for name, arr := range workloads {
		want := serialOracle(arr, w, w, false, band)
		if len(want) == 0 {
			t.Fatalf("%s: oracle produced no matches; workload broken", name)
		}
		for _, kind := range allIndexKinds {
			for _, shards := range []int{2, 4} {
				got, st := reshapeRun(t, arr, Config{
					Shards: shards, BatchSize: 16, WR: w, WS: w, Band: band, Index: kind,
				}, func(r *Router, i int) {
					if i > 0 && i%1024 == 0 {
						// Alternate growing to 2k+1 shards and shrinking back.
						r.Reshape(Reshape{Shards: shards + (i/1024)%2*(shards+1)})
					}
				})
				if st.Migrated == 0 {
					t.Fatalf("%s/%v/k=%d: reshape epochs migrated nothing", name, kind, shards)
				}
				if !equalTriples(got, want) {
					t.Fatalf("%s/%v/k=%d: multiset differs after reshape epochs (%d vs %d matches)",
						name, kind, shards, len(got), len(want))
				}
			}
		}
	}
}

// A reshape deals the default stripes, so it yields exactly the requested
// shard count even when every key pushed so far is one value.
func TestReshapeDealsStripes(t *testing.T) {
	const w = 64
	const n = 1200
	band := join.Band{Diff: 1}
	arr := make([]stream.Arrival, n)
	for i := range arr {
		arr[i] = stream.Arrival{Stream: uint8(i % 2), Key: 42}
	}
	want := serialOracle(arr, w, w, false, band)
	got, _ := reshapeRun(t, arr, Config{
		Shards: 2, BatchSize: 16, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
	}, func(r *Router, i int) {
		if i == n/2 {
			r.Reshape(Reshape{Shards: 4})
			if r.part != Partitioner(newStripedPartitioner(4, band.Diff)) {
				t.Fatalf("partitioner after reshape = %+v, want the 4-shard stripes", r.part)
			}
			if got := r.Shards(); got != 4 {
				t.Fatalf("Shards() = %d after reshaping to 4", got)
			}
		}
	})
	if !equalTriples(got, want) {
		t.Fatalf("one-key reshape multiset differs (%d vs %d)", len(got), len(want))
	}
}

// QueueHW must rise with traffic and start fresh marks when a reshape changes
// the shard identities.
func TestReshapeQueueHighWater(t *testing.T) {
	const w = 128
	const n = 4000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(4), stream.NewUniform(5), 0.5).Take(n)

	r := NewRouter(Config{
		Shards: 2, BatchSize: 4, WR: w, WS: w, Band: band, Index: join.IndexPIMTree,
	}, n)
	sawHW := false
	for i, a := range arr {
		if i == n/2 {
			for _, l := range r.LoadSnapshot() {
				if l.QueueHW > 0 {
					sawHW = true
				}
			}
			r.Reshape(Reshape{Shards: 4})
			for s, l := range r.LoadSnapshot() {
				if l.QueueHW != 0 {
					t.Fatalf("shard %d: QueueHW=%d right after reshape, want fresh mark", s, l.QueueHW)
				}
			}
		}
		r.Push(a)
	}
	r.Close()
	if !sawHW {
		t.Fatal("no shard ever recorded a queue high-water mark")
	}
	if got := r.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
}

// Reshape parameter validation: negative values are programming errors.
func TestReshapeValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRouter(Config{Shards: 2, WR: 8, WS: 8, Index: join.IndexPIMTree}, 64)
	defer r.Close()
	mustPanic("negative shards", func() { r.Reshape(Reshape{Shards: -1}) })
	mustPanic("negative batch", func() { r.Reshape(Reshape{BatchSize: -1}) })
	mustPanic("negative capacity", func() { r.Reshape(Reshape{Capacity: -4}) })
}
