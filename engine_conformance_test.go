// Engine conformance suite: every Mode × backend combination must produce
// the exact match multiset of the serial join on the same input, no matter
// how the input is pushed — one tuple at a time, in random batch sizes, or
// with a mid-stream Drain — and with Stats polled concurrently (the suite is
// meant to run under -race).
package pimtree_test

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pimtree"
	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// matchKey is a comparable flattening of a Match for multiset comparison.
type matchKey struct {
	stream pimtree.StreamID
	probe  uint64
	match  uint64
}

func sortedMatches(ms []matchKey) []matchKey {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.stream != b.stream {
			return a.stream < b.stream
		}
		if a.probe != b.probe {
			return a.probe < b.probe
		}
		return a.match < b.match
	})
	return ms
}

func collectMatches(dst *[]matchKey) func(pimtree.Match) {
	return func(m pimtree.Match) {
		*dst = append(*dst, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
	}
}

// serialOracle plays the arrivals one at a time through join.Streaming
// itself — no Engine, so no runtime, batching or located descent under test
// — and returns the match multiset plus the cumulative match count after
// every arrival.
func serialOracle(t *testing.T, arr []pimtree.Arrival, w int, diff uint32) (ms []matchKey, cum []uint64) {
	t.Helper()
	j := join.NewStreaming(join.SerialConfig{
		WR: w, WS: w, Band: join.Band{Diff: diff}, Index: join.IndexPIMTree,
		Sink: func(s uint8, probe, match uint64) {
			ms = append(ms, matchKey{pimtree.StreamID(s), probe, match})
		},
	})
	cum = make([]uint64, len(arr))
	var total uint64
	for i, a := range arr {
		total += uint64(j.Push(stream.Arrival{Stream: uint8(a.Stream), Key: a.Key}))
		cum[i] = total
	}
	sortedMatches(ms)
	return ms, cum
}

// pollStats hammers Stats from another goroutine until stop is closed —
// the -race observability check for live mid-stream snapshots.
func pollStats(e *pimtree.Engine, stop chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			if st.Matches < last {
				panic("Stats().Matches went backwards")
			}
			last = st.Matches
			// Busy-polling a 1-core box would starve the engine under test.
			runtime.Gosched()
		}
	}()
}

func engineCombos(short bool) []struct {
	name string
	cfg  pimtree.Config
} {
	w := 256
	var combos []struct {
		name string
		cfg  pimtree.Config
	}
	add := func(name string, cfg pimtree.Config) {
		cfg.WindowR, cfg.WindowS = w, w
		combos = append(combos, struct {
			name string
			cfg  pimtree.Config
		}{name, cfg})
	}
	backends := []pimtree.Backend{pimtree.PIMTree, pimtree.IMTree, pimtree.BPlusTree}
	for _, b := range backends {
		add("serial/"+b.String(), pimtree.Config{Mode: pimtree.ModeSerial, Backend: b})
	}
	if short {
		// One delta-merge and one eager-delete index.
		backends = []pimtree.Backend{pimtree.PIMTree, pimtree.BPlusTree}
	}
	for _, b := range backends {
		add("sharded/"+b.String(), pimtree.Config{
			Mode: pimtree.ModeSharded, Backend: b, Shards: 3, BatchSize: 16,
		})
	}
	return combos
}

func TestEngineConformance(t *testing.T) {
	const w = 256
	n := 6000
	if testing.Short() {
		n = 2500
	}
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(11, pimtree.UniformSource(12), pimtree.UniformSource(13), 0.5, n)
	want, cum := serialOracle(t, arr, w, diff)

	for _, combo := range engineCombos(testing.Short()) {
		for _, gran := range []string{"one-by-one", "random-batches"} {
			t.Run(combo.name+"/"+gran, func(t *testing.T) {
				var got []matchKey
				var mu sync.Mutex
				cfg := combo.cfg
				cfg.Diff = diff
				cfg.OnMatch = func(m pimtree.Match) {
					mu.Lock()
					got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
					mu.Unlock()
				}
				e, err := pimtree.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				pollStats(e, stop, &wg)

				half := len(arr) / 2
				switch gran {
				case "one-by-one":
					for i, a := range arr {
						if err := e.Push(a.Stream, a.Key); err != nil {
							t.Fatal(err)
						}
						if i == half-1 {
							if err := e.Drain(context.Background()); err != nil {
								t.Fatal(err)
							}
							// Drain is deterministic: everything pushed so
							// far has been propagated.
							if m := e.Stats().Matches; m != cum[i] {
								t.Fatalf("after mid-stream Drain at %d: %d matches, oracle %d", i+1, m, cum[i])
							}
						}
					}
				case "random-batches":
					rng := rand.New(rand.NewSource(99))
					for lo := 0; lo < len(arr); {
						hi := lo + 1 + rng.Intn(97)
						if hi > len(arr) {
							hi = len(arr)
						}
						if err := e.PushBatch(arr[lo:hi]); err != nil {
							t.Fatal(err)
						}
						lo = hi
					}
				}
				st, err := e.Close(context.Background())
				close(stop)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if st.Tuples != len(arr) {
					t.Fatalf("Tuples = %d, want %d", st.Tuples, len(arr))
				}
				if st.Matches != uint64(len(want)) {
					t.Fatalf("Matches = %d, want %d", st.Matches, len(want))
				}
				sortedMatches(got)
				if len(got) != len(want) {
					t.Fatalf("match multiset size %d, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

func TestEngineShardedTimeConformance(t *testing.T) {
	const (
		span    = 1 << 12
		slack   = 1 << 7
		maxLive = 1 << 11
	)
	n := 6000
	if testing.Short() {
		n = 2500
	}
	diff := uint32(1 << 10)
	sorted := pimtree.TimestampArrivals(21,
		pimtree.Interleave(22, pimtree.UniformSource(23), pimtree.UniformSource(24), 0.5, n), 3)
	shuffled := pimtree.ShuffleWithinSlack(25, sorted, slack)

	// Oracle: serial TimeJoin over the sorted sequence.
	var want []matchKey
	oracle, err := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{
		Span: span, Diff: diff, OnMatch: collectMatches(&want),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sorted {
		oracle.Push(a.Stream, a.Key, a.TS)
	}
	sortedMatches(want)

	for _, gran := range []string{"one-by-one", "random-batches"} {
		t.Run(gran, func(t *testing.T) {
			var got []matchKey
			var mu sync.Mutex
			e, err := pimtree.Open(pimtree.Config{
				Mode: pimtree.ModeShardedTime, Span: span, MaxLive: maxLive,
				Diff: diff, Shards: 3, Slack: slack, LatePolicy: pimtree.LateDrop,
				OnMatch: func(m pimtree.Match) {
					mu.Lock()
					got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			pollStats(e, stop, &wg)

			switch gran {
			case "one-by-one":
				// No mid-stream Drain here: draining flushes the reorder
				// buffer and advances the watermark past it, which would
				// (by design) make the rest of the shuffled input late.
				for _, a := range shuffled {
					if err := e.PushTimed(a.Stream, a.Key, a.TS); err != nil {
						t.Fatal(err)
					}
				}
			case "random-batches":
				batch := make([]pimtree.Arrival, 0, 128)
				rng := rand.New(rand.NewSource(7))
				for lo := 0; lo < len(shuffled); {
					hi := lo + 1 + rng.Intn(97)
					if hi > len(shuffled) {
						hi = len(shuffled)
					}
					batch = batch[:0]
					for _, a := range shuffled[lo:hi] {
						batch = append(batch, pimtree.Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS})
					}
					if err := e.PushBatch(batch); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
			}
			st, err := e.Close(context.Background())
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if st.LateDropped != 0 {
				t.Fatalf("LateDropped = %d with slack covering the disorder", st.LateDropped)
			}
			if st.MaxObservedDisorder == 0 {
				t.Fatal("MaxObservedDisorder = 0 over a shuffled stream")
			}
			sortedMatches(got)
			if len(got) != len(want) {
				t.Fatalf("match multiset size %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestEngineMatchesIterator exercises the pull side: a consumer goroutine
// ranging over Matches observes exactly the multiset OnMatch would, and the
// iterator terminates once the engine closes.
func TestEngineMatchesIterator(t *testing.T) {
	const w = 256
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(31, pimtree.UniformSource(32), pimtree.UniformSource(33), 0.5, 3000)
	want, _ := serialOracle(t, arr, w, diff)

	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []matchKey
	done := make(chan struct{})
	// Arm the pull side before the first push so nothing is missed.
	seq := e.Matches()
	go func() {
		defer close(done)
		for m := range seq {
			got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
		}
	}()
	if err := e.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Matches iterator did not terminate after Close")
	}
	sortedMatches(got)
	if len(got) != len(want) {
		t.Fatalf("pulled %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineMatchBatches: the batch iterator yields the pull side's matches
// in runs — the same multiset as the serial oracle, each run non-empty and
// capped — and ends after Close.
func TestEngineMatchBatches(t *testing.T) {
	const w = 256
	diff := pimtree.DiffForMatchRate(w, 4)
	arr := pimtree.Interleave(35, pimtree.UniformSource(36), pimtree.UniformSource(37), 0.5, 20000)
	want, _ := serialOracle(t, arr, w, diff)

	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := e.MatchBatches() // arm before pushing
	if err := e.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []matchKey
	runs := 0
	for b := range seq {
		if len(b) == 0 || len(b) > 4096 {
			t.Fatalf("run of %d matches", len(b))
		}
		runs++
		for _, m := range b {
			got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
		}
	}
	if len(want) > 4096 && runs < 2 {
		t.Fatalf("%d matches in %d run(s): the run cap did not apply", len(want), runs)
	}
	sortedMatches(got)
	if len(got) != len(want) {
		t.Fatalf("pulled %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineMatchesBreakDisarms: breaking out of the pull iterator stops
// collection (an abandoned iterator must not buffer forever) and a later
// Matches call re-arms from that point.
func TestEngineMatchesBreakDisarms(t *testing.T) {
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8, Diff: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := e.Matches()
	e.Push(pimtree.R, 1)
	e.Push(pimtree.S, 1) // match #1
	got := 0
	for range first {
		got++
		break // disarms
	}
	if got != 1 {
		t.Fatalf("pulled %d before break, want 1", got)
	}
	e.Push(pimtree.R, 2)
	e.Push(pimtree.S, 2) // match while disarmed: dropped, not buffered
	second := e.Matches()
	e.Push(pimtree.R, 3)
	e.Push(pimtree.S, 3) // match #3, collected by the re-armed queue
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for m := range second {
		seqs = append(seqs, m.ProbeSeq)
	}
	if len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("re-armed iterator saw %v, want just the S-seq-2 match", seqs)
	}
}

// TestEngineSerialPullAfterClose: the serial engine shares the producer
// goroutine with the consumer; the unbounded pull queue makes
// push-everything-then-range work without a second goroutine.
func TestEngineSerialPullAfterClose(t *testing.T) {
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8, Diff: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := e.Matches() // arm before pushing
	e.Push(pimtree.R, 10)
	e.Push(pimtree.S, 11) // pairs with R:10
	e.Push(pimtree.S, 40)
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []pimtree.Match
	for m := range seq {
		got = append(got, m)
	}
	if len(got) != 1 || got[0].ProbeStream != pimtree.S || got[0].MatchSeq != 0 {
		t.Fatalf("pulled %+v, want the single S->R match", got)
	}
}

// TestEngineBackpressure pins the bounded-queue behavior: a tiny
// QueueCapacity forces the producer through the blocking path and the run
// still completes with the exact multiset.
func TestEngineBackpressure(t *testing.T) {
	const w = 256
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(41, pimtree.UniformSource(42), pimtree.UniformSource(43), 0.5, 2000)
	want, _ := serialOracle(t, arr, w, diff)

	t.Run(pimtree.ModeSharded.String(), func(t *testing.T) {
		var got []matchKey
		var mu sync.Mutex
		e, err := pimtree.Open(pimtree.Config{
			Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff,
			Shards: 2, QueueCapacity: 8,
			OnMatch: func(m pimtree.Match) {
				mu.Lock()
				got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.PushBatch(arr); err != nil {
			t.Fatal(err)
		}
		st, err := e.Close(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Matches != uint64(len(want)) {
			t.Fatalf("Matches = %d, want %d", st.Matches, len(want))
		}
		sortedMatches(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// TestEngineDurableCloseReopen is the lifecycle conformance point for the
// durability layer on the real filesystem: closing a durable engine and
// reopening the same Config on the same directory must yield a session that
// behaves exactly as if the first session's input had been pushed into it —
// its matches are the serial oracle's matches whose probe falls in the
// second half of the stream, with the global sequence numbering continued.
func TestEngineDurableCloseReopen(t *testing.T) {
	const w = 256
	n := 4000
	if testing.Short() {
		n = 2000
	}
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(29, pimtree.UniformSource(31), pimtree.UniformSource(37), 0.5, n)
	full, _ := serialOracle(t, arr, w, diff)
	half := n / 2
	firstHalf, _ := serialOracle(t, arr[:half], w, diff)
	var n1 [2]uint64 // per-stream tuple counts of the first half
	for _, a := range arr[:half] {
		n1[a.Stream]++
	}

	dir := t.TempDir()
	cfg := pimtree.Config{
		Mode: pimtree.ModeSharded, Backend: pimtree.PIMTree,
		WindowR: w, WindowS: w, Diff: diff,
		Shards: 3, BatchSize: 16,
		Durability: pimtree.Durability{Dir: dir, FsyncEvery: 16, SnapshotEvery: 512},
	}

	var msA []matchKey
	var muA sync.Mutex
	cfgA := cfg
	cfgA.OnMatch = func(m pimtree.Match) {
		muA.Lock()
		msA = append(msA, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
		muA.Unlock()
	}
	a, err := pimtree.Open(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PushBatch(arr[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedMatches(msA), firstHalf; len(got) != len(want) {
		t.Fatalf("session A emitted %d matches, oracle %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("session A match %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}

	var msB []matchKey
	var muB sync.Mutex
	cfgB := cfg
	cfgB.OnMatch = func(m pimtree.Match) {
		muB.Lock()
		msB = append(msB, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
		muB.Unlock()
	}
	b, err := pimtree.Open(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ws := b.WALStats()
	if !ws.Enabled || ws.ReplayRecords == 0 {
		t.Fatalf("session B recovered nothing: %+v", ws)
	}
	if err := b.PushBatch(arr[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	var want []matchKey
	for _, m := range full {
		if m.probe >= n1[m.stream] {
			want = append(want, m)
		}
	}
	got := sortedMatches(msB)
	want = sortedMatches(want)
	if len(got) != len(want) {
		t.Fatalf("session B emitted %d matches, oracle's second-half probes have %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("session B match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
