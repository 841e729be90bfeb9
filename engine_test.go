// Engine lifecycle and unified-validation tests: every constructor routes
// through the same Config.validate, so equivalent misconfigurations must
// produce identical error text and the named error conditions must be
// matchable with errors.Is across the whole API surface.
package pimtree_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pimtree"
)

// TestValidationUniform is the table-driven sweep over every constructor:
// each row lists the same violation expressed through each entry point; all
// returned errors must be non-nil and share one text.
func TestValidationUniform(t *testing.T) {
	timed := []pimtree.Arrival{{Stream: pimtree.R, Key: 1, TS: 9}, {Stream: pimtree.R, Key: 1, TS: 5}}
	// openErr is Open's verdict on cfg. An engine it wrongly opens is closed,
	// so its workers do not outlive the row, and the row still fails on the
	// nil error.
	openErr := func(cfg pimtree.Config) error {
		e, err := pimtree.Open(cfg)
		if err == nil {
			e.Close(context.Background())
		}
		return err
	}
	// unordered opens a strict time-window engine and returns the error its
	// push reports for a timestamp regression.
	unordered := func(push func(*pimtree.Engine) error) error {
		e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close(context.Background())
		err = push(e)
		if !errors.Is(err, pimtree.ErrUnordered) {
			t.Fatalf("unordered strict input: error %v does not wrap ErrUnordered", err)
		}
		return err
	}
	// indexOpts is Open's verdict on opt in every mode: the modes share one
	// IndexOptions check.
	indexOpts := func(opt pimtree.IndexOptions) map[string]error {
		return map[string]error{
			"Open/serial":       openErr(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: 4, WindowS: 4, Index: opt}),
			"Open/sharded":      openErr(pimtree.Config{Mode: pimtree.ModeSharded, WindowR: 4, WindowS: 4, Index: opt}),
			"Open/sharded-time": openErr(pimtree.Config{Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8, Index: opt}),
		}
	}
	rows := []struct {
		name string
		errs map[string]error
	}{
		{
			name: "zero WindowR",
			errs: map[string]error{
				"Open/serial":  openErr(pimtree.Config{Mode: pimtree.ModeSerial, WindowS: 4}),
				"Open/sharded": openErr(pimtree.Config{Mode: pimtree.ModeSharded, WindowS: 4}),
			},
		},
		{
			name: "zero WindowS",
			errs: map[string]error{
				"Open/serial":  openErr(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: 4}),
				"Open/sharded": openErr(pimtree.Config{Mode: pimtree.ModeSharded, WindowR: 4}),
			},
		},
		{
			name: "zero Span",
			errs: map[string]error{
				"NewTimeJoin": errOf2(pimtree.NewTimeJoin(pimtree.TimeJoinOptions{})),
				"Open":        openErr(pimtree.Config{Mode: pimtree.ModeShardedTime, MaxLive: 8}),
			},
		},
		{
			name: "zero MaxLive",
			errs: map[string]error{
				"Open":      openErr(pimtree.Config{Mode: pimtree.ModeShardedTime, Span: 10}),
				"Open/auto": openErr(pimtree.Config{Span: 10}),
			},
		},
		{
			name: "slack without policy",
			errs: map[string]error{
				"Open": openErr(pimtree.Config{
					Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8, Slack: 5,
				}),
			},
		},
		{
			name: "LateCall without OnLate",
			errs: map[string]error{
				"Open": openErr(pimtree.Config{
					Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8, LatePolicy: pimtree.LateCall,
				}),
			},
		},
		{name: "negative MergeRatio", errs: indexOpts(pimtree.IndexOptions{MergeRatio: -0.5})},
		{name: "NaN MergeRatio", errs: indexOpts(pimtree.IndexOptions{MergeRatio: math.NaN()})},
		{name: "MergeRatio above 1", errs: indexOpts(pimtree.IndexOptions{MergeRatio: 1.5})},
		{name: "negative InsertionDepth", errs: indexOpts(pimtree.IndexOptions{InsertionDepth: -1})},
		{
			name: "unordered strict input",
			errs: map[string]error{
				"PushBatch": unordered(func(e *pimtree.Engine) error { return e.PushBatch(timed) }),
				"PushTimed": unordered(func(e *pimtree.Engine) error {
					for _, a := range timed {
						if err := e.PushTimed(a.Stream, a.Key, a.TS); err != nil {
							return err
						}
					}
					return nil
				}),
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var text string
			for name, err := range row.errs {
				if err == nil {
					t.Fatalf("%s accepted the misconfiguration", name)
				}
				if text == "" {
					text = err.Error()
				} else if err.Error() != text {
					t.Fatalf("non-uniform error text:\n  %s\n  %s: %s", text, name, err)
				}
			}
		})
	}
}

func errOf2[T any](_ T, err error) error { return err }

// TestBackendModeMatrix opens every Backend in every Mode and joins one
// workload through it: within a mode the backends agree on a non-zero match
// count.
func TestBackendModeMatrix(t *testing.T) {
	arr := pimtree.Interleave(3, pimtree.UniformSource(1), pimtree.UniformSource(2), 0.5, 2000)
	for i := range arr {
		arr[i].TS = uint64(i) * 4
	}
	for _, mode := range []pimtree.Mode{pimtree.ModeAuto, pimtree.ModeSerial, pimtree.ModeSharded, pimtree.ModeShardedTime} {
		cfg := pimtree.Config{Mode: mode, Diff: 1 << 22, Shards: 2, DiscardMatches: true}
		switch mode {
		case pimtree.ModeShardedTime:
			cfg.Span, cfg.MaxLive = 512, 128
		case pimtree.ModeSerial:
			cfg.Shards = 0
			fallthrough
		default:
			cfg.WindowR, cfg.WindowS = 128, 128
		}
		var want uint64
		for i, b := range []pimtree.Backend{pimtree.PIMTree, pimtree.IMTree, pimtree.BPlusTree} {
			cfg.Backend = b
			e, err := pimtree.Open(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, b, err)
			}
			if err := e.PushBatch(arr); err != nil {
				t.Fatalf("%s/%s: %v", mode, b, err)
			}
			st, err := e.Close(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, b, err)
			}
			if i == 0 {
				want = st.Matches
			}
			if st.Matches == 0 || st.Matches != want {
				t.Fatalf("%s/%s: %d matches, %s found %d", mode, b, st.Matches, pimtree.PIMTree, want)
			}
		}
	}
}

// TestUnknownBackendRejected: a Backend outside the constants fails Open in
// every mode instead of running some other index.
func TestUnknownBackendRejected(t *testing.T) {
	for _, b := range []pimtree.Backend{-1, 3, 99} {
		for _, cfg := range []pimtree.Config{
			{Mode: pimtree.ModeSerial, WindowR: 4, WindowS: 4},
			{Mode: pimtree.ModeSharded, WindowR: 4, WindowS: 4},
			{Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8},
		} {
			cfg.Backend = b
			e, err := pimtree.Open(cfg)
			if err == nil {
				e.Close(context.Background())
				t.Fatalf("%s: Backend(%d) accepted", cfg.Mode, int(b))
			}
			if want := "pimtree: unknown Backend " + strconv.Itoa(int(b)); err.Error() != want {
				t.Fatalf("%s: error %q, want %q", cfg.Mode, err, want)
			}
		}
	}
}

// TestWindowTooLargeNamed pins the bound the 32-bit index refs put on a
// window: anything above 2^31 tuples is refused at Open, by name, instead of
// reaching the shard engines' span guard mid-stream.
func TestWindowTooLargeNamed(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("a window above 2^31 does not fit an int here")
	}
	one := int64(1) // not a constant: 2^31+1 must compile where int is 32 bits
	big := int(one<<31 + 1)
	for name, cfg := range map[string]pimtree.Config{
		"WindowR": {Mode: pimtree.ModeSharded, WindowR: big, WindowS: 4},
		"WindowS": {Mode: pimtree.ModeSharded, WindowR: 4, WindowS: big},
		"MaxLive": {Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: big},
	} {
		_, err := pimtree.Open(cfg)
		if !errors.Is(err, pimtree.ErrWindowTooLarge) || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s = 2^31+1: error %v, want one naming the field and wrapping ErrWindowTooLarge", name, err)
		}
	}
	// A self-join ignores WindowS.
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSharded, Shards: 2, WindowR: 4, WindowS: big, Self: true, DiscardMatches: true})
	if err != nil {
		t.Fatalf("self-join with an unused oversized WindowS: %v", err)
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

type autoModeCase struct {
	name  string
	cfg   pimtree.Config
	cores int // GOMAXPROCS during Open; 0 keeps the host's
	want  pimtree.Mode
}

func checkAutoModes(t *testing.T, cases []autoModeCase) {
	t.Helper()
	for _, c := range cases {
		open := func() (*pimtree.Engine, error) {
			if c.cores > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.cores))
			}
			return pimtree.Open(c.cfg)
		}
		e, err := open()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e.Mode() != c.want {
			t.Fatalf("%s: resolved %s, want %s", c.name, e.Mode(), c.want)
		}
		if _, err := e.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineAutoMode(t *testing.T) {
	checkAutoModes(t, []autoModeCase{
		{"time window", pimtree.Config{Span: 10, MaxLive: 8}, 0, pimtree.ModeShardedTime},
		{"count windows", pimtree.Config{WindowR: 4, WindowS: 4, Shards: 2}, 0, pimtree.ModeSharded},
	})
	// The decision table's precedence, one row per rule, each under a
	// pinned core count.
	t.Run("decision_table", func(t *testing.T) {
		checkAutoModes(t, []autoModeCase{
			{"sharded knobs single core", pimtree.Config{WindowR: 512, WindowS: 512, Shards: 2}, 1, pimtree.ModeSharded},
			{"multicore default", pimtree.Config{WindowR: 4, WindowS: 4}, 8, pimtree.ModeSharded},
			{"single core default", pimtree.Config{WindowR: 4, WindowS: 4}, 1, pimtree.ModeSerial},
		})
	})
}

// TestEngineValidationGuards pins the Open-never-panics contract and the
// cross-mode knob rejections added alongside it.
func TestEngineValidationGuards(t *testing.T) {
	// Out-of-order knobs act on event time; count modes must reject them
	// rather than silently ignore a disorder tolerance.
	for name, cfg := range map[string]pimtree.Config{
		"slack":  {Mode: pimtree.ModeSharded, WindowR: 8, WindowS: 8, Slack: 100},
		"policy": {Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8, LatePolicy: pimtree.LateDrop},
		"onlate": {Mode: pimtree.ModeSharded, WindowR: 256, WindowS: 256, OnLate: func(pimtree.TimedArrival, uint64) {}},
	} {
		if _, err := pimtree.Open(cfg); err == nil {
			t.Fatalf("count-mode %s knob accepted", name)
		}
	}
	// DiscardMatches and OnMatch are mutually exclusive output sides.
	if _, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8,
		DiscardMatches: true, OnMatch: func(pimtree.Match) {},
	}); err == nil {
		t.Fatal("DiscardMatches with OnMatch accepted")
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSharded, WindowR: 16, WindowS: 16, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PushTimed(pimtree.R, 1, 1); err == nil {
		t.Fatal("PushTimed accepted on a count-window engine")
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(pimtree.R, 1); !errors.Is(err, pimtree.ErrClosed) {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
	if err := e.PushBatch(nil); !errors.Is(err, pimtree.ErrClosed) {
		t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, pimtree.ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Close(context.Background()); !errors.Is(err, pimtree.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}

	// Timed engine: a strict-mode timestamp regression is rejected with
	// ErrUnordered and does not poison the session.
	te, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeShardedTime, Span: 100, MaxLive: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := te.PushTimed(pimtree.R, 1, 50); err != nil {
		t.Fatal(err)
	}
	if err := te.PushTimed(pimtree.S, 2, 49); !errors.Is(err, pimtree.ErrUnordered) {
		t.Fatalf("regressed PushTimed = %v, want ErrUnordered", err)
	}
	if err := te.Push(pimtree.R, 1); err == nil || strings.Contains(err.Error(), "closed") {
		t.Fatalf("count Push on timed engine = %v, want a mode error", err)
	}
	if err := te.PushTimed(pimtree.S, 2, 51); err != nil {
		t.Fatalf("push after rejected regression: %v", err)
	}
	if _, err := te.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAbortedDrain drives the cancellable-session path
// deterministically: a blocking OnMatch stalls the propagation stage, so a
// Drain under an already-canceled context must abandon, the engine must
// refuse further pushes with ErrAborted, and Close must still complete once
// the sink unblocks.
func TestEngineAbortedDrain(t *testing.T) {
	release := make(chan struct{})
	reached := make(chan struct{})
	var once sync.Once
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: 64, WindowS: 64, Diff: pimtree.KeySpace,
		Shards: 2, BatchSize: 1,
		OnMatch: func(pimtree.Match) {
			once.Do(func() { close(reached) })
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two tuples that must match: the second's probe produces a match whose
	// propagation blocks in OnMatch.
	if err := e.Push(pimtree.R, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.Push(pimtree.S, 10); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("sink never reached")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain under canceled ctx = %v, want context.Canceled", err)
	}
	if err := e.Push(pimtree.R, 11); !errors.Is(err, pimtree.ErrAborted) {
		t.Fatalf("Push after abandoned Drain = %v, want ErrAborted", err)
	}
	close(release)
	st, err := e.Close(context.Background())
	if err != nil {
		t.Fatalf("Close after abandoned Drain: %v", err)
	}
	if st.Matches == 0 {
		t.Fatal("no matches after unblocking the sink")
	}
}

// An unknown StreamID is rejected by name in every mode and through every
// push entry point, before it can index a window; a batch holding one is
// rejected whole; and the engine keeps accepting valid pushes afterwards.
// (The id used to panic under the producer lock and leave every later push
// hung.)
func TestUnknownStreamIDRejected(t *testing.T) {
	bg := context.Background()
	for _, cfg := range []pimtree.Config{
		{Mode: pimtree.ModeSerial, WindowR: 16, WindowS: 16},
		{Mode: pimtree.ModeSharded, WindowR: 16, WindowS: 16, Shards: 2},
		{Mode: pimtree.ModeShardedTime, Span: 100, MaxLive: 64, Shards: 2},
	} {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			e, err := pimtree.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close(bg)
			timed := cfg.Mode == pimtree.ModeShardedTime
			push := func(s pimtree.StreamID, ts uint64) error {
				if timed {
					return e.PushTimed(s, 1, ts)
				}
				return e.Push(s, 1)
			}
			wantErr := func(what string, err error, id int) {
				t.Helper()
				if want := "pimtree: unknown StreamID " + strconv.Itoa(id); err == nil || err.Error() != want {
					t.Fatalf("%s = %v, want %q", what, err, want)
				}
			}
			wantErr("push of stream 2", push(2, 1), 2)
			batch := []pimtree.Arrival{{Stream: pimtree.R, Key: 1, TS: 1}, {Stream: 7, Key: 1, TS: 2}}
			wantErr("PushBatch holding stream 7", e.PushBatch(batch), 7)
			if err := e.Drain(bg); err != nil {
				t.Fatal(err)
			}
			if n := e.Stats().Tuples; n != 0 {
				t.Fatalf("rejected pushes admitted %d tuples", n)
			}
			done := make(chan error, 1)
			go func() { done <- push(pimtree.S, 3) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("valid push after the rejections: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("valid push after the rejections hung")
			}
			if err := e.Drain(bg); err != nil {
				t.Fatal(err)
			}
			if n := e.Stats().Tuples; n != 1 {
				t.Fatalf("Tuples = %d after one valid push, want 1", n)
			}
		})
	}
}

// A serial PushBatch reports the matches of a Push loop over the same
// arrivals, in the same order, for every backend, two-stream and self-join.
// The windows are small, so the two-stage indexes merge inside most of the
// batch's locate chunks and the located path meets stale positions.
func TestSerialPushBatchMatchesPush(t *testing.T) {
	const w, n = 100, 6000
	rng := rand.New(rand.NewSource(38))
	arr := make([]pimtree.Arrival, n)
	for i := range arr {
		arr[i] = pimtree.Arrival{Stream: pimtree.StreamID(rng.Intn(2)), Key: uint32(rng.Intn(4 * w))}
	}
	for _, be := range []pimtree.Backend{pimtree.PIMTree, pimtree.IMTree, pimtree.BPlusTree} {
		for _, self := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/self=%v", be, self), func(t *testing.T) {
				run := func(batched bool) (ms []matchKey, st pimtree.RunStats) {
					e, err := pimtree.Open(pimtree.Config{
						Mode: pimtree.ModeSerial, WindowR: w, WindowS: w, Self: self, Diff: 2,
						Backend: be, OnMatch: collectMatches(&ms),
					})
					if err != nil {
						t.Fatal(err)
					}
					for rest := arr; len(rest) > 0; {
						k := 1
						if batched {
							k = min(len(rest), 1+rng.Intn(400))
							err = e.PushBatch(rest[:k])
						} else {
							err = e.Push(rest[0].Stream, rest[0].Key)
						}
						if err != nil {
							t.Fatal(err)
						}
						rest = rest[k:]
					}
					if st, err = e.Close(context.Background()); err != nil {
						t.Fatal(err)
					}
					return ms, st
				}
				want, _ := run(false)
				got, st := run(true)
				if len(want) == 0 {
					t.Fatal("no matches: the test exercises nothing")
				}
				if be != pimtree.BPlusTree && st.Merges < n/w {
					t.Fatalf("%d merges over %d arrivals: the batches did not straddle merges", st.Merges, n)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("PushBatch reported %d matches, the Push loop %d, or their order differs", len(got), len(want))
				}
			})
		}
	}
}
