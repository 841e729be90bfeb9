// Engine lifecycle and unified-validation tests: every constructor routes
// through the same Config.validate, so equivalent misconfigurations must
// produce identical error text and the named error conditions must be
// matchable with errors.Is across the whole API surface.
package pimtree_test

import (
	"context"
	"errors"
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
	timed := []pimtree.TimedArrival{{Stream: pimtree.R, Key: 1, TS: 5}}
	rows := []struct {
		name string
		errs map[string]error
	}{
		{
			name: "zero WindowR",
			errs: map[string]error{
				"NewJoin":     errOf2(pimtree.NewJoin(pimtree.JoinOptions{WindowS: 4})),
				"RunParallel": errOf(pimtree.RunParallel(nil, pimtree.ParallelOptions{WindowS: 4})),
				"RunSharded": errOf(pimtree.RunSharded(nil, pimtree.ShardedOptions{
					JoinOptions: pimtree.JoinOptions{WindowS: 4},
				})),
				"Open": errOf2(pimtree.Open(pimtree.Config{Mode: pimtree.ModeSharded, WindowS: 4})),
			},
		},
		{
			name: "zero WindowS",
			errs: map[string]error{
				"NewJoin":     errOf2(pimtree.NewJoin(pimtree.JoinOptions{WindowR: 4})),
				"RunParallel": errOf(pimtree.RunParallel(nil, pimtree.ParallelOptions{WindowR: 4})),
				"RunSharded": errOf(pimtree.RunSharded(nil, pimtree.ShardedOptions{
					JoinOptions: pimtree.JoinOptions{WindowR: 4},
				})),
				"Open": errOf2(pimtree.Open(pimtree.Config{Mode: pimtree.ModeShared, WindowR: 4})),
			},
		},
		{
			name: "zero Span",
			errs: map[string]error{
				"NewTimeJoin":     errOf2(pimtree.NewTimeJoin(pimtree.TimeJoinOptions{})),
				"RunParallelTime": errOf(pimtree.RunParallelTime(nil, pimtree.ParallelTimeOptions{MaxLive: 8})),
				"RunShardedTime":  errOf(pimtree.RunShardedTime(nil, pimtree.ShardedTimeOptions{MaxLive: 8})),
				"Open":            errOf2(pimtree.Open(pimtree.Config{Mode: pimtree.ModeShardedTime, MaxLive: 8})),
			},
		},
		{
			name: "zero MaxLive",
			errs: map[string]error{
				"RunParallelTime": errOf(pimtree.RunParallelTime(nil, pimtree.ParallelTimeOptions{Span: 10})),
				"RunShardedTime":  errOf(pimtree.RunShardedTime(nil, pimtree.ShardedTimeOptions{Span: 10})),
				"Open":            errOf2(pimtree.Open(pimtree.Config{Mode: pimtree.ModeShardedTime, Span: 10})),
			},
		},
		{
			name: "slack without policy",
			errs: map[string]error{
				"NewTimeJoin": errOf2(pimtree.NewTimeJoin(pimtree.TimeJoinOptions{Span: 10, Slack: 5})),
				"RunParallelTime": errOf(pimtree.RunParallelTime(nil, pimtree.ParallelTimeOptions{
					Span: 10, MaxLive: 8, Slack: 5,
				})),
				"RunShardedTime": errOf(pimtree.RunShardedTime(nil, pimtree.ShardedTimeOptions{
					Span: 10, MaxLive: 8, Slack: 5,
				})),
				"Open": errOf2(pimtree.Open(pimtree.Config{
					Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8, Slack: 5,
				})),
			},
		},
		{
			name: "LateCall without OnLate",
			errs: map[string]error{
				"NewTimeJoin": errOf2(pimtree.NewTimeJoin(pimtree.TimeJoinOptions{
					Span: 10, LatePolicy: pimtree.LateCall,
				})),
				"RunShardedTime": errOf(pimtree.RunShardedTime(nil, pimtree.ShardedTimeOptions{
					Span: 10, MaxLive: 8, LatePolicy: pimtree.LateCall,
				})),
				"Open": errOf2(pimtree.Open(pimtree.Config{
					Mode: pimtree.ModeShardedTime, Span: 10, MaxLive: 8, LatePolicy: pimtree.LateCall,
				})),
			},
		},
		{
			name: "unordered strict input",
			errs: map[string]error{
				"RunParallelTime": errOf(pimtree.RunParallelTime(append([]pimtree.TimedArrival{{TS: 9}}, timed...),
					pimtree.ParallelTimeOptions{Span: 10, MaxLive: 8})),
				"RunShardedTime": errOf(pimtree.RunShardedTime(append([]pimtree.TimedArrival{{TS: 9}}, timed...),
					pimtree.ShardedTimeOptions{Span: 10, MaxLive: 8})),
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

func errOf(_ pimtree.RunStats, err error) error { return err }
func errOf2[T any](_ T, err error) error        { return err }

// TestUnsupportedBackendNamed pins satellite #2: every unsupported
// mode × backend pair fails with an error wrapping ErrUnsupportedBackend —
// RunParallel no longer silently narrows to PIM-Tree.
func TestUnsupportedBackendNamed(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"RunParallel/IMTree", errOf(pimtree.RunParallel(nil, pimtree.ParallelOptions{
			WindowR: 4, WindowS: 4, Backend: pimtree.IMTree,
		}))},
		{"RunParallel/BPlusTree", errOf(pimtree.RunParallel(nil, pimtree.ParallelOptions{
			WindowR: 4, WindowS: 4, Backend: pimtree.BPlusTree,
		}))},
		{"RunParallel/BChain", errOf(pimtree.RunParallel(nil, pimtree.ParallelOptions{
			WindowR: 4, WindowS: 4, Backend: pimtree.BChain,
		}))},
		{"RunSharded/BChain", errOf(pimtree.RunSharded(nil, pimtree.ShardedOptions{
			JoinOptions: pimtree.JoinOptions{WindowR: 4, WindowS: 4, Backend: pimtree.BChain},
		}))},
		{"RunShardedTime/IBChain", errOf(pimtree.RunShardedTime(nil, pimtree.ShardedTimeOptions{
			Span: 10, MaxLive: 8, Backend: pimtree.IBChain,
		}))},
		{"Open/shared/IMTree", errOf2(pimtree.Open(pimtree.Config{
			Mode: pimtree.ModeShared, WindowR: 4, WindowS: 4, Backend: pimtree.IMTree,
		}))},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Fatalf("%s: unsupported backend accepted", c.name)
		}
		if !errors.Is(c.err, pimtree.ErrUnsupportedBackend) {
			t.Fatalf("%s: error %v does not wrap ErrUnsupportedBackend", c.name, c.err)
		}
	}
	// The supported pairs must still open. Threads is pinned because the
	// Bw-Tree's eager-delete runtime requires windows > 2x the in-flight
	// bound (threads*task+64), which GOMAXPROCS-many workers could exceed.
	for _, b := range []pimtree.Backend{pimtree.PIMTree, pimtree.BwTree} {
		st, err := pimtree.RunParallel(nil, pimtree.ParallelOptions{
			WindowR: 256, WindowS: 256, Backend: b, Threads: 2,
		})
		if err != nil {
			t.Fatalf("RunParallel with %s: %v", b, err)
		}
		if st.Tuples != 0 {
			t.Fatalf("empty run reported %d tuples", st.Tuples)
		}
	}
	// The historical UseBwTree flag still selects the Bw-Tree.
	if _, err := pimtree.RunParallel(nil, pimtree.ParallelOptions{
		WindowR: 256, WindowS: 256, UseBwTree: true, Threads: 2,
	}); err != nil {
		t.Fatalf("UseBwTree compatibility: %v", err)
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

func TestEngineAutoMode(t *testing.T) {
	cases := []struct {
		name string
		cfg  pimtree.Config
		want pimtree.Mode
	}{
		{"time window", pimtree.Config{Span: 10, MaxLive: 8}, pimtree.ModeShardedTime},
		{"chained backend", pimtree.Config{WindowR: 4, WindowS: 4, Backend: pimtree.BChain}, pimtree.ModeSerial},
		{"count windows", pimtree.Config{WindowR: 4, WindowS: 4, Shards: 2}, pimtree.ModeSharded},
		// Shared-only knobs steer auto-resolution to the shared runtime:
		// asking for a thread pool (or latency sampling) must not silently
		// produce a sharded run.
		{"shared knobs", pimtree.Config{WindowR: 512, WindowS: 512, Threads: 2, RecordLatency: true}, pimtree.ModeShared},
	}
	for _, c := range cases {
		e, err := pimtree.Open(c.cfg)
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

// TestEngineValidationGuards pins the Open-never-panics contract and the
// cross-mode knob rejections added alongside it.
func TestEngineValidationGuards(t *testing.T) {
	// Bw-Tree windows too small for the in-flight bound: a validation
	// error, not the runtime's panic.
	if _, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeShared, WindowR: 16, WindowS: 16,
		Backend: pimtree.BwTree, Threads: 8,
	}); err == nil {
		t.Fatal("tiny Bw-Tree windows accepted in shared mode")
	}
	// Out-of-order knobs act on event time; count modes must reject them
	// rather than silently ignore a disorder tolerance.
	for name, cfg := range map[string]pimtree.Config{
		"slack":  {Mode: pimtree.ModeSharded, WindowR: 8, WindowS: 8, Slack: 100},
		"policy": {Mode: pimtree.ModeSerial, WindowR: 8, WindowS: 8, LatePolicy: pimtree.LateDrop},
		"onlate": {Mode: pimtree.ModeShared, WindowR: 256, WindowS: 256, OnLate: func(pimtree.TimedArrival, uint64) {}},
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
