// Reconfigure conformance: forced mid-stream reshapes must keep every
// backend's match multiset identical to the serial Join in both sharded
// modes, and the error paths must stay pinned. Meant to run under -race.
package pimtree_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pimtree"
)

// reshapePoints returns the forced grow/shrink schedule for an n-arrival
// stream: grow at one third, shrink at two thirds.
func reshapePoints(n int) (grow, shrink int) { return n / 3, 2 * n / 3 }

func TestEngineReconfigureConformance(t *testing.T) {
	const w = 256
	n := 6000
	if testing.Short() {
		n = 2500
	}
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(51, pimtree.UniformSource(52), pimtree.UniformSource(53), 0.5, n)
	want, _ := serialOracle(t, arr, w, diff)

	backends := []pimtree.Backend{pimtree.PIMTree, pimtree.IMTree, pimtree.BPlusTree}
	if testing.Short() {
		backends = []pimtree.Backend{pimtree.PIMTree, pimtree.BPlusTree}
	}
	grow, shrink := reshapePoints(n)
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			var got []matchKey
			var mu sync.Mutex
			e, err := pimtree.Open(pimtree.Config{
				Mode: pimtree.ModeSharded, Backend: b,
				WindowR: w, WindowS: w, Diff: diff, Shards: 2, BatchSize: 16,
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
			for i, a := range arr {
				switch i {
				case grow:
					if err := e.Reconfigure(pimtree.Delta{Shards: 6, BatchSize: 4}); err != nil {
						t.Fatal(err)
					}
				case shrink:
					if err := e.Reconfigure(pimtree.Delta{Shards: 2, QueueCapacity: 4096}); err != nil {
						t.Fatal(err)
					}
					if tu := e.Tuning(); tu.Reconfigures != 2 || tu.Reshapes != 2 {
						t.Fatalf("Tuning counts %+v after two deltas", tu)
					}
				}
				if err := e.Push(a.Stream, a.Key); err != nil {
					t.Fatal(err)
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

// Sharded-time conformance across a reshape: the timestamp watermark must
// carry into the new shard set, with the reorder buffer's in-flight disorder
// straddling the epoch.
func TestEngineShardedTimeReconfigureConformance(t *testing.T) {
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
	sorted := pimtree.TimestampArrivals(61,
		pimtree.Interleave(62, pimtree.UniformSource(63), pimtree.UniformSource(64), 0.5, n), 3)
	shuffled := pimtree.ShuffleWithinSlack(65, sorted, slack)

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

	var got []matchKey
	var mu sync.Mutex
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeShardedTime, Span: span, MaxLive: maxLive,
		Diff: diff, Shards: 2, Slack: slack, LatePolicy: pimtree.LateDrop,
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
	grow, shrink := reshapePoints(len(shuffled))
	for i, a := range shuffled {
		switch i {
		case grow:
			if err := e.Reconfigure(pimtree.Delta{Shards: 5}); err != nil {
				t.Fatal(err)
			}
		case shrink:
			if err := e.Reconfigure(pimtree.Delta{Shards: 3, BatchSize: 8}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.PushTimed(a.Stream, a.Key, a.TS); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.Close(context.Background())
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.LateDropped != 0 {
		t.Fatalf("reshape made %d buffered tuples late", st.LateDropped)
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
}

// TestEngineReconfigureErrors pins the error paths: non-tunable modes,
// negative deltas, and ErrClosed.
func TestEngineReconfigureErrors(t *testing.T) {
	const w = 64
	open := func(t *testing.T, cfg pimtree.Config) *pimtree.Engine {
		t.Helper()
		e, err := pimtree.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("not tunable", func(t *testing.T) {
		e := open(t, pimtree.Config{Mode: pimtree.ModeSerial, WindowR: w, WindowS: w})
		defer e.Close(context.Background())
		err := e.Reconfigure(pimtree.Delta{Shards: 4})
		if !errors.Is(err, pimtree.ErrNotTunable) {
			t.Fatalf("err = %v, want ErrNotTunable", err)
		}
		if !strings.Contains(err.Error(), pimtree.ModeSerial.String()) {
			t.Fatalf("error %q does not name the mode", err)
		}
	})

	t.Run("negative delta", func(t *testing.T) {
		e := open(t, pimtree.Config{Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Shards: 2})
		defer e.Close(context.Background())
		if err := e.Reconfigure(pimtree.Delta{Shards: -1}); err == nil {
			t.Fatal("negative shards delta accepted")
		}
	})

	t.Run("zero delta is a no-op", func(t *testing.T) {
		e := open(t, pimtree.Config{Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Shards: 2})
		defer e.Close(context.Background())
		if err := e.Reconfigure(pimtree.Delta{}); err != nil {
			t.Fatal(err)
		}
		if tu := e.Tuning(); tu.Reconfigures != 0 {
			t.Fatalf("zero delta counted as a reconfiguration: %+v", tu)
		}
	})

	t.Run("closed engine", func(t *testing.T) {
		e := open(t, pimtree.Config{Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Shards: 2})
		if _, err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := e.Reconfigure(pimtree.Delta{Shards: 4}); !errors.Is(err, pimtree.ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	})
}

// Concurrent Reconfigure calls (several admin clients racing) must
// serialize against each other and the producer; the run stays exact.
func TestEngineReconfigureConcurrent(t *testing.T) {
	const w = 128
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(71, pimtree.UniformSource(72), pimtree.UniformSource(73), 0.5, 4000)
	want, _ := serialOracle(t, arr, w, diff)

	var got []matchKey
	var mu sync.Mutex
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff,
		Shards: 2, BatchSize: 8,
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
	targets := [][]int{{3, 5, 2}, {4, 2, 6}, {2, 3, 4}}
	for _, seq := range targets {
		wg.Add(1)
		go func(seq []int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := e.Reconfigure(pimtree.Delta{Shards: seq[i%len(seq)]})
				if err != nil && !errors.Is(err, pimtree.ErrClosed) {
					panic(err)
				}
				time.Sleep(time.Millisecond)
			}
		}(seq)
	}
	for _, a := range arr {
		if err := e.Push(a.Stream, a.Key); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	tu := e.Tuning()
	st, err := e.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tuples != len(arr) {
		t.Fatalf("Tuples = %d, want %d", st.Tuples, len(arr))
	}
	if tu.Reconfigures == 0 {
		t.Fatal("no concurrent Reconfigure ever applied")
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
}

// A reshape deals the default stripes, so it yields exactly the requested
// shard count even when every key pushed so far is one value.
func TestReshapeDealsStripes(t *testing.T) {
	const w, n = 64, 1200
	const diff = 1
	arr := make([]pimtree.Arrival, n)
	for i := range arr {
		arr[i] = pimtree.Arrival{Stream: pimtree.StreamID(i % 2), Key: 42}
	}
	want, _ := serialOracle(t, arr, w, diff)

	var got []matchKey
	var mu sync.Mutex
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff, Shards: 2,
		OnMatch: func(m pimtree.Match) {
			mu.Lock()
			got = append(got, matchKey{m.ProbeStream, m.ProbeSeq, m.MatchSeq})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if i == n/2 {
			if err := e.Reconfigure(pimtree.Delta{Shards: 4}); err != nil {
				t.Fatal(err)
			}
			if s := e.Tuning().Shards; s != 4 {
				t.Fatalf("Tuning().Shards = %d after reshaping to 4", s)
			}
		}
		if err := e.Push(a.Stream, a.Key); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
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
}
