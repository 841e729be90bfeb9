package pimtree

import "testing"

// TestGoldenAdaptiveSharded pins the PR's acceptance criterion at the public
// API: ModeSharded with Adaptive enabled and rebalance epochs forced
// mid-stream produces the identical match multiset as ModeSerial, across
// backends, on a step-skew workload that actually exercises
// migration.
func TestGoldenAdaptiveSharded(t *testing.T) {
	const (
		n    = 10000
		w    = 256
		seed = 4242
	)
	// Same generator seed for both streams keeps the hot bands co-located.
	arr := Interleave(seed, StepSkewSource(seed+1, 1.0/16, n/5), StepSkewSource(seed+1, 1.0/16, n/5), 0.5, n)
	diff := CalibrateDiff(func(s int64) KeySource { return StepSkewSource(s, 1.0/16, n/5) }, w, 2)

	for _, backend := range []Backend{PIMTree, IMTree, BPlusTree, BwTree} {
		cfg := Config{WindowR: w, WindowS: w, Diff: diff, Backend: backend}
		want := collectSerial(t, arr, cfg)
		if len(want) == 0 {
			t.Fatalf("%v: serial oracle produced no matches; workload broken", backend)
		}
		cfg.Mode = ModeSharded
		cfg.Shards = 4
		cfg.Adaptive = true
		cfg.Rebalance = RebalancePolicy{ForceEvery: 777, SampleSize: 1024}
		got, st := runCollect(t, arr, cfg)
		if st.Rebalances == 0 {
			t.Fatalf("%v: no forced rebalance ran", backend)
		}
		if st.MigratedTuples == 0 {
			t.Fatalf("%v: rebalances migrated no tuples on a step-skew workload", backend)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: adaptive matches = %d, want %d (after %d rebalances)",
				backend, len(got), len(want), st.Rebalances)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: match %d differs: adaptive %+v, serial %+v", backend, i, got[i], want[i])
			}
		}
	}
}

// TestAdaptiveMonitorPath exercises the production trigger (no forced
// schedule) at the public API on a drifting hotspot. Correctness must hold
// for whatever epochs the monitor lands.
func TestAdaptiveMonitorPath(t *testing.T) {
	const (
		n    = 40000
		w    = 128
		seed = 515
	)
	arr := Interleave(seed, DriftingHotspotSource(seed+1, 1.0/16, n), DriftingHotspotSource(seed+1, 1.0/16, n), 0.5, n)
	diff := CalibrateDiff(func(s int64) KeySource { return DriftingHotspotSource(s, 1.0/16, n) }, w, 2)

	cfg := Config{WindowR: w, WindowS: w, Diff: diff, Backend: PIMTree}
	want := collectSerial(t, arr, cfg)

	cfg.Mode = ModeSharded
	cfg.Shards = 4
	cfg.Adaptive = true
	cfg.Rebalance = RebalancePolicy{MaxRatio: 1.2, MinGap: 4096, SampleSize: 1024}
	got, _ := runCollect(t, arr, cfg)
	if len(got) != len(want) {
		t.Fatalf("adaptive matches = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d differs: adaptive %+v, serial %+v", i, got[i], want[i])
		}
	}
}
