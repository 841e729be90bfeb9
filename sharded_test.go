package pimtree

import (
	"context"
	"sort"
	"sync"
	"testing"
)

// runSession plays the arrivals through one engine session on cfg and
// returns its final statistics.
func runSession(t *testing.T, arr []Arrival, cfg Config) RunStats {
	t.Helper()
	e, err := Open(cfg)
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
	return st
}

// runCollect is runSession that also returns the sorted match multiset.
func runCollect(t *testing.T, arr []Arrival, cfg Config) ([]Match, RunStats) {
	t.Helper()
	var mu sync.Mutex
	var got []Match
	cfg.OnMatch = func(m Match) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}
	st := runSession(t, arr, cfg)
	sortMatches(got)
	return got, st
}

// collectSerial runs a serial engine on cfg's windows, band and backend and
// returns its sorted match multiset.
func collectSerial(t *testing.T, arr []Arrival, cfg Config) []Match {
	t.Helper()
	cfg.Mode = ModeSerial
	ms, _ := runCollect(t, arr, cfg)
	return ms
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.ProbeStream != b.ProbeStream {
			return a.ProbeStream < b.ProbeStream
		}
		if a.ProbeSeq != b.ProbeSeq {
			return a.ProbeSeq < b.ProbeSeq
		}
		return a.MatchSeq < b.MatchSeq
	})
}

// TestGoldenSharded pins the acceptance criterion of the sharded runtime:
// ModeSharded with 4 shards produces the identical match multiset — as
// (ProbeStream, ProbeSeq, MatchSeq) triples — as ModeSerial on the same
// input.
func TestGoldenSharded(t *testing.T) {
	const (
		n    = 10000
		w    = 256
		seed = 12345
	)
	arr := Interleave(seed, UniformSource(seed+1), UniformSource(seed+2), 0.5, n)
	diff := DiffForMatchRate(w, 2)

	cfg := Config{WindowR: w, WindowS: w, Diff: diff, Backend: PIMTree}
	want := collectSerial(t, arr, cfg)
	// The golden workload's pinned match count (see TestGoldenEndToEnd).
	if len(want) != 19356 {
		t.Fatalf("serial oracle produced %d matches, want 19356", len(want))
	}

	cfg.Mode = ModeSharded
	cfg.Shards = 4
	got, st := runCollect(t, arr, cfg)
	if st.Matches != uint64(len(want)) {
		t.Fatalf("sharded matches = %d, want %d", st.Matches, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs: sharded %+v, serial %+v", i, got[i], want[i])
		}
	}
}

// TestDefaultPartitionerBalancesHotKeys: with no Partitioner set, two shards
// hold equal shares of the window both when keys stop at KeySpace (the lower
// half of the domain) and when they fall in a band one eighth of the domain
// wide that sweeps it, checked once per window length of input.
func TestDefaultPartitionerBalancesHotKeys(t *testing.T) {
	const (
		w    = 4096
		n    = 16 * w
		diff = 1 << 13 // 512 stripes over 2 shards
	)
	uniform := Interleave(3, UniformSource(4), UniformSource(5), 0.5, n)
	hot := Interleave(6, UniformSource(7), UniformSource(8), 0.5, n)
	for i := range hot {
		// UniformSource keys lie in [0, 2^31); shifted right twice they fill
		// a band 2^29 wide whose start sweeps the domain once.
		hot[i].Key = uint32(uint64(i)<<32/n) + hot[i].Key>>2
	}
	for _, c := range []struct {
		name string
		arr  []Arrival
	}{{"KeySpace", uniform}, {"hot-band", hot}} {
		t.Run(c.name, func(t *testing.T) {
			e, err := Open(Config{
				Mode: ModeSharded, Shards: 2, WindowR: w, WindowS: w, Diff: diff,
				DiscardMatches: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close(context.Background())
			for lo := 0; lo < n; lo += w {
				if err := e.PushBatch(c.arr[lo : lo+w]); err != nil {
					t.Fatal(err)
				}
				if err := e.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				if imb := e.Stats().Imbalance; lo >= w && imb > 1.1 {
					t.Fatalf("after %d arrivals: imbalance %.3f, want <= 1.1", lo+w, imb)
				}
			}
		})
	}
}

// TestRunShardedValidation covers the error paths of the sharded mode.
func TestRunShardedValidation(t *testing.T) {
	if _, err := Open(Config{Mode: ModeSharded, WindowS: 4}); err == nil {
		t.Fatal("missing WindowR accepted")
	}
	if _, err := Open(Config{Mode: ModeSharded, WindowR: 4}); err == nil {
		t.Fatal("missing WindowS accepted")
	}
	// Self-join needs only one window.
	runSession(t, []Arrival{{Stream: R, Key: 1}}, Config{Mode: ModeSharded, WindowR: 4, Self: true, Shards: 2})
}

// TestRunShardedPartitionerHook checks that a custom Partitioner is honored
// and that QuantilePartition balances a skewed workload across shards while
// preserving the serial match multiset.
func TestRunShardedPartitionerHook(t *testing.T) {
	const (
		n    = 8000
		w    = 128
		seed = 777
	)
	src := GaussianSource(seed, 0.5, 0.125)
	arr := Interleave(seed+1, GaussianSource(seed+2, 0.5, 0.125), GaussianSource(seed+3, 0.5, 0.125), 0.5, n)
	sample := make([]uint32, 4096)
	for i := range sample {
		sample[i] = src.Next()
	}
	diff := CalibrateDiff(func(s int64) KeySource { return GaussianSource(s, 0.5, 0.125) }, w, 2)

	cfg := Config{WindowR: w, WindowS: w, Diff: diff, Backend: PIMTree}
	want := collectSerial(t, arr, cfg)

	part := QuantilePartition(sample, 4)
	if part.Shards() != 4 {
		t.Fatalf("quantile partitioner collapsed to %d shards", part.Shards())
	}
	cfg.Mode = ModeSharded
	cfg.Partitioner = part
	cfg.BatchSize = 16
	got, st := runCollect(t, arr, cfg)
	if len(got) != len(want) {
		t.Fatalf("matches = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	if st.Tuples != n {
		t.Fatalf("Tuples = %d, want %d", st.Tuples, n)
	}
}

// TestEngineTuningReportsApplied pins Tuning to what the router runs: it
// keeps no defaults of its own, and a serial engine, which has neither a
// batch nor a queue, reports zero for both even when the Config sets them.
func TestEngineTuningReportsApplied(t *testing.T) {
	ser, err := Open(Config{Mode: ModeSerial, WindowR: 64, WindowS: 64, BatchSize: 32, QueueCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	if tu := ser.Tuning(); tu.Shards != 0 || tu.BatchSize != 0 || tu.QueueCapacity != 0 {
		t.Fatalf("serial Tuning = %+v, want 0 shards, batch and capacity", tu)
	}
	if _, err := ser.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	e, err := Open(Config{Mode: ModeSharded, WindowR: 64, WindowS: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(context.Background())
	check := func(when string) Tuning {
		t.Helper()
		tu := e.Tuning()
		if tu.Shards != e.router.Shards() || tu.BatchSize != e.router.BatchSize() || tu.QueueCapacity != e.router.Cap() {
			t.Fatalf("%s: Tuning = %+v, router runs %d shards, batch %d, capacity %d",
				when, tu, e.router.Shards(), e.router.BatchSize(), e.router.Cap())
		}
		if tu.BatchSize <= 0 || tu.QueueCapacity <= 0 {
			t.Fatalf("%s: Tuning = %+v, want resolved defaults", when, tu)
		}
		return tu
	}
	before := check("open")
	const capacity = 4096
	if err := e.Reconfigure(Delta{QueueCapacity: capacity}); err != nil {
		t.Fatal(err)
	}
	after := check("reconfigured")
	if after.QueueCapacity != capacity || after.BatchSize != before.BatchSize {
		t.Fatalf("after Reconfigure(QueueCapacity %d): %+v (before %+v)", capacity, after, before)
	}
}
