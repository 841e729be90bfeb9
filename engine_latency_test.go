package pimtree_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pimtree"
)

// idleFlushBound is how long a lone matching pair may take to reach the
// output in the router modes. Batches hold 64 ops, so without the call-end
// flush of idle lanes the pair would wait for a full batch or a Drain.
const idleFlushBound = 100 * time.Millisecond

// TestEngineIdleFlushLatency pushes one matching pair, one call per tuple,
// and nothing else: its match must reach the output without a Drain, through
// OnMatch and through the Matches iterator, in both router modes.
func TestEngineIdleFlushLatency(t *testing.T) {
	const key = 12345
	modes := []struct {
		name string
		cfg  pimtree.Config
		push func(e *pimtree.Engine, s pimtree.StreamID, ts uint64) error
	}{
		{"sharded", pimtree.Config{
			Mode: pimtree.ModeSharded, Shards: 2, WindowR: 1024, WindowS: 1024,
		}, func(e *pimtree.Engine, s pimtree.StreamID, _ uint64) error { return e.Push(s, key) }},
		{"sharded-time", pimtree.Config{
			Mode: pimtree.ModeShardedTime, Shards: 2, Span: 1 << 10, MaxLive: 1024, Slack: 0,
		}, func(e *pimtree.Engine, s pimtree.StreamID, ts uint64) error { return e.PushTimed(s, key, ts) }},
	}
	for _, m := range modes {
		for _, out := range []string{"OnMatch", "Matches"} {
			t.Run(m.name+"/"+out, func(t *testing.T) {
				got := make(chan pimtree.Match, 1)
				cfg := m.cfg
				if out == "OnMatch" {
					cfg.OnMatch = func(mt pimtree.Match) { got <- mt }
				}
				e, err := pimtree.Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close(context.Background())
				if out == "Matches" {
					seq := e.Matches()
					go func() {
						for mt := range seq {
							got <- mt
							return
						}
					}()
				}
				if err := m.push(e, pimtree.R, 1); err != nil {
					t.Fatal(err)
				}
				if err := m.push(e, pimtree.S, 2); err != nil {
					t.Fatal(err)
				}
				select {
				case mt := <-got:
					want := pimtree.Match{ProbeStream: pimtree.S, ProbeSeq: 0, MatchSeq: 0}
					if mt != want {
						t.Fatalf("match %+v, want %+v", mt, want)
					}
				case <-time.After(idleFlushBound):
					t.Fatalf("no match within %v of the pair's last push", idleFlushBound)
				}
			})
		}
	}
}

// TestIdleFlushRacesDrain pushes small batches from one goroutine while
// another drains every few milliseconds: the call-end idle flushes and the
// drain barriers interleave on the producer mutex, and the match multiset
// must still be the serial one.
func TestIdleFlushRacesDrain(t *testing.T) {
	const w = 256
	n := 6000
	if testing.Short() {
		n = 2000
	}
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := pimtree.Interleave(21, pimtree.UniformSource(22), pimtree.UniformSource(23), 0.5, n)
	want, _ := serialOracle(t, arr, w, diff)

	var got []matchKey
	var mu sync.Mutex
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, Shards: 3, BatchSize: 16,
		WindowR: w, WindowS: w, Diff: diff, Backend: pimtree.PIMTree,
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
	drained := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				drained <- nil
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := e.Drain(context.Background()); err != nil {
				drained <- err
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(7))
	for lo := 0; lo < len(arr); {
		hi := min(lo+1+rng.Intn(40), len(arr))
		if err := e.PushBatch(arr[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	close(stop)
	if err := <-drained; err != nil {
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
	if len(got) != len(want) {
		t.Fatalf("match multiset size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
