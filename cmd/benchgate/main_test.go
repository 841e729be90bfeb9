package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimtree/internal/bench"
)

func writeReport(t *testing.T, dir, name string, r bench.Report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func report(calib float64, mtps ...float64) bench.Report {
	rows := make([][]string, len(mtps))
	for i, m := range mtps {
		rows[i] = []string{
			[]string{"step-skew", "drift", "gaussian"}[i%3],
			fmt.Sprintf("%.4f", m),
			"3", // rebalances column: must be ignored by the gate
		}
	}
	return bench.Report{
		CalibMtps: calib,
		Experiments: []bench.ExperimentResult{{
			Table: bench.Table{
				ID:      "abl-adaptive",
				Columns: []string{"workload", "Mtps", "rebalances"},
				Rows:    rows,
			},
		}},
	}
}

func gate(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestGatePassesOnEqualReports(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0, 2.0))
	c := writeReport(t, dir, "cur.json", report(1.0, 2.0, 2.0, 2.0))
	code, out := gate(t, "-baseline", b, "-current", c)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "pass") {
		t.Fatalf("no pass verdict:\n%s", out)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0, 2.0))
	c := writeReport(t, dir, "cur.json", report(1.0, 1.0, 1.0, 1.0)) // -50%
	code, out := gate(t, "-baseline", b, "-current", c)
	if code != 1 || !strings.Contains(out, "FAIL abl-adaptive") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestGateToleratesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0, 2.0))
	c := writeReport(t, dir, "cur.json", report(1.0, 1.7, 1.7, 1.7)) // -15%
	if code, out := gate(t, "-baseline", b, "-current", c); code != 0 {
		t.Fatalf("within-threshold run failed (exit %d):\n%s", code, out)
	}
	// Same drop fails under a tighter threshold.
	if code, _ := gate(t, "-baseline", b, "-current", c, "-max-regress", "0.1"); code != 1 {
		t.Fatal("tighter threshold did not fail")
	}
}

// A slower host with proportionally slower results must pass: calibration
// scaling is what keeps a baseline recorded on different hardware usable.
func TestGateCalibrationScaling(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(2.0, 4.0, 4.0, 4.0))
	c := writeReport(t, dir, "cur.json", report(1.0, 2.0, 2.0, 2.0)) // half speed, half calib
	if code, out := gate(t, "-baseline", b, "-current", c); code != 0 {
		t.Fatalf("calibrated half-speed host failed (exit %d):\n%s", code, out)
	}
	// Without calibration the same comparison is a -50% regression.
	if code, _ := gate(t, "-baseline", b, "-current", c, "-calibrate=false"); code != 1 {
		t.Fatal("uncalibrated comparison unexpectedly passed")
	}
}

func TestGateMissingExperimentFails(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0))
	empty := bench.Report{CalibMtps: 1.0}
	c := writeReport(t, dir, "cur.json", empty)
	code, out := gate(t, "-baseline", b, "-current", c)
	if code != 1 || !strings.Contains(out, "missing from current report") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestGateUsageErrors(t *testing.T) {
	if code, _ := gate(t); code != 2 {
		t.Fatal("missing required flags accepted")
	}
	if code, _ := gate(t, "-baseline", "/nonexistent.json", "-current", "/nonexistent.json"); code != 2 {
		t.Fatal("unreadable report accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if code, _ := gate(t, "-baseline", bad, "-current", bad); code != 2 {
		t.Fatal("malformed report accepted")
	}
}

func TestDirection(t *testing.T) {
	cases := []struct {
		col  string
		want int
	}{
		{"Mtps", dirHigher},
		{"sharded", dirHigher},
		{"offered/s", dirHigher},
		{"cap/s", dirHigher},
		{"mean µs", dirLower},
		{"p99 µs", dirLower},
		{"p50 ms", dirLower},
		{"p999 ms", dirLower},
		{"lag p99 ms", dirLower},
		{"tail latency", dirLower},
		{"nanos/op", dirLower},
		{"allocs/tuple", dirAlloc},
		{"B/tuple", dirAlloc},
		{"allocs/op", dirAlloc},
		{"B/op", dirAlloc},
		{"alloc objects", dirAlloc},
		{"rebalances", dirSkip},
		{"Rebalances", dirSkip},
		{"migrated", dirSkip},
		{"merges", dirSkip},
		{"sent", dirSkip},
		{"matches", dirSkip},
		{"trials", dirSkip},
		{"errors", dirSkip},
	}
	for _, tc := range cases {
		if got := direction(tc.col); got != tc.want {
			t.Errorf("direction(%q) = %d, want %d", tc.col, got, tc.want)
		}
	}
}

func TestCellMapSplitsByDirection(t *testing.T) {
	m := cellMap(bench.Table{
		Columns: []string{"workload", "Mtps", "rebalances"},
		Rows:    [][]string{{"a", "1.5", "7"}, {"b", "zero", "-"}},
	}, dirHigher)
	if len(m) != 1 || m["a|Mtps"] != 1.5 {
		t.Fatalf("cellMap = %v", m)
	}
	// Lower-is-better latency columns must stay out of the throughput
	// geomean: they would invert the regression direction (abl-edgescan's
	// table shape) — they form their own direction instead.
	tbl := bench.Table{
		Columns: []string{"task", "Mtps", "mean µs", "p99 µs"},
		Rows:    [][]string{{"8", "2.0", "100", "900"}},
	}
	if m := cellMap(tbl, dirHigher); len(m) != 1 || m["8|Mtps"] != 2.0 {
		t.Fatalf("latency columns leaked into throughput gate: %v", m)
	}
	if m := cellMap(tbl, dirLower); len(m) != 2 || m["8|mean µs"] != 100 || m["8|p99 µs"] != 900 {
		t.Fatalf("latency cells = %v", m)
	}
}

// A cell present in the baseline but absent from the current report must
// fail the gate even when the surviving cells look healthy — silent geomean
// shrinkage can mask a regression in exactly the vanished cells.
func TestGateFailsOnDroppedCells(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0, 2.0))
	// Current report keeps only the first two rows (drops "gaussian|Mtps")
	// with unchanged throughput elsewhere.
	cur := report(1.0, 2.0, 2.0, 2.0)
	cur.Experiments[0].Table.Rows = cur.Experiments[0].Table.Rows[:2]
	c := writeReport(t, dir, "cur.json", cur)
	code, out := gate(t, "-baseline", b, "-current", c)
	if code != 1 {
		t.Fatalf("dropped cell passed the gate (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "missing or non-positive") || !strings.Contains(out, "gaussian|Mtps") {
		t.Fatalf("dropped cell not reported by name:\n%s", out)
	}
}

// A cell that turned non-positive (unparseable or <= 0) is dropped from
// cellMap and must fail the same way.
func TestGateFailsOnNonPositiveCell(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0, 2.0))
	cur := report(1.0, 2.0, 2.0, 2.0)
	cur.Experiments[0].Table.Rows[2][1] = "0.0000" // gaussian throughput hit zero
	c := writeReport(t, dir, "cur.json", cur)
	code, out := gate(t, "-baseline", b, "-current", c)
	if code != 1 || !strings.Contains(out, "gaussian|Mtps") {
		t.Fatalf("non-positive cell passed or was not named (exit %d):\n%s", code, out)
	}
}

// latencyReport builds a load-style report mixing a higher-is-better rate
// column with lower-is-better latency quantiles and a skipped counter.
func latencyReport(calib, offered, p50, p99 float64) bench.Report {
	return bench.Report{
		CalibMtps: calib,
		Experiments: []bench.ExperimentResult{{
			Table: bench.Table{
				ID:      "load-constant",
				Columns: []string{"scenario", "offered/s", "sent", "p50 ms", "p99 ms"},
				Rows: [][]string{{
					"constant",
					fmt.Sprintf("%.1f", offered),
					"12345",
					fmt.Sprintf("%.4f", p50),
					fmt.Sprintf("%.4f", p99),
				}},
			},
		}},
	}
}

func latencyGate(t *testing.T, base, cur bench.Report, extra ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", base)
	c := writeReport(t, dir, "cur.json", cur)
	args := append([]string{"-baseline", b, "-current", c, "-prefix", "load-"}, extra...)
	return gate(t, args...)
}

// Latency cells gate in the opposite direction: an increase beyond the
// threshold fails, a decrease (or an increase within it) passes.
func TestGateLatencyDirection(t *testing.T) {
	base := latencyReport(1.0, 50000, 2.0, 8.0)

	if code, out := latencyGate(t, base, latencyReport(1.0, 50000, 6.0, 24.0), "-max-lat-regress", "0.5"); code != 1 ||
		!strings.Contains(out, "FAIL load-constant    latency") {
		t.Fatalf("3x latency increase passed (exit %d):\n%s", code, out)
	}
	if code, out := latencyGate(t, base, latencyReport(1.0, 50000, 1.0, 4.0), "-max-lat-regress", "0.5"); code != 0 {
		t.Fatalf("latency improvement failed (exit %d):\n%s", code, out)
	}
	if code, out := latencyGate(t, base, latencyReport(1.0, 50000, 2.5, 10.0), "-max-lat-regress", "0.5"); code != 0 {
		t.Fatalf("within-threshold latency increase failed (exit %d):\n%s", code, out)
	}
	// A throughput drop in the same experiment still fails independently of
	// the healthy latency cells.
	if code, out := latencyGate(t, base, latencyReport(1.0, 20000, 2.0, 8.0), "-max-lat-regress", "0.5"); code != 1 ||
		!strings.Contains(out, "FAIL load-constant    throughput") {
		t.Fatalf("offered/s drop passed (exit %d):\n%s", code, out)
	}
}

// Without -max-lat-regress latency cells are reported but not gated — the
// quick-scale closed-loop ablation latencies are too noisy to gate.
func TestGateLatencyOptIn(t *testing.T) {
	base := latencyReport(1.0, 50000, 2.0, 8.0)
	code, out := latencyGate(t, base, latencyReport(1.0, 50000, 200.0, 800.0))
	if code != 0 {
		t.Fatalf("ungated latency increase failed the gate (exit %d):\n%s", code, out)
	}
	if !strings.Contains(out, "info load-constant    latency") {
		t.Fatalf("ungated latency not reported:\n%s", out)
	}
}

// Calibration scales latency inversely: a half-speed host is allowed
// proportionally higher latency, and a full-speed host claiming baseline
// latency recorded on a much slower machine is held to the scaled bound.
func TestGateLatencyCalibration(t *testing.T) {
	base := latencyReport(2.0, 4.0, 2.0, 8.0)
	// Half-speed host: half the rate, double the latency — proportional.
	if code, out := latencyGate(t, base, latencyReport(1.0, 2.0, 4.0, 16.0), "-max-lat-regress", "0.5"); code != 0 {
		t.Fatalf("calibrated half-speed host failed (exit %d):\n%s", code, out)
	}
	// Without calibration the doubled latency is a real regression.
	if code, _ := latencyGate(t, base, latencyReport(1.0, 2.0, 4.0, 16.0), "-max-lat-regress", "0.5", "-calibrate=false"); code != 1 {
		t.Fatal("uncalibrated doubled latency passed")
	}
}

// A latency cell that vanished from the current report fails the gate when
// latency is gated, exactly like a vanished throughput cell.
func TestGateLatencyDroppedCell(t *testing.T) {
	base := latencyReport(1.0, 50000, 2.0, 8.0)
	cur := latencyReport(1.0, 50000, 2.0, 8.0)
	cur.Experiments[0].Table.Rows[0][4] = "0.0000" // p99 ms hit zero
	code, out := latencyGate(t, base, cur, "-max-lat-regress", "0.5")
	if code != 1 || !strings.Contains(out, "constant|p99 ms") {
		t.Fatalf("dropped latency cell passed or was not named (exit %d):\n%s", code, out)
	}
}

// A pimload report must round-trip through the gate against itself — the
// shape CI's pimload-smoke job relies on.
func TestGateLoadReportSelfRoundTrip(t *testing.T) {
	rep := latencyReport(1.3, 48000, 1.5, 6.0)
	code, out := latencyGate(t, rep, rep, "-max-lat-regress", "0.25")
	if code != 0 || !strings.Contains(out, "pass") {
		t.Fatalf("self-comparison failed (exit %d):\n%s", code, out)
	}
}

// allocReport builds an abl-alloc-style report: a throughput column next to
// per-tuple allocation cells whose healthy value is exactly zero.
func allocReport(calib, mtps, allocs, bytes float64) bench.Report {
	return bench.Report{
		CalibMtps: calib,
		Experiments: []bench.ExperimentResult{{
			Table: bench.Table{
				ID:      "abl-alloc",
				Columns: []string{"runtime", "Mtps", "allocs/tuple", "B/tuple"},
				Rows: [][]string{{
					"serial",
					fmt.Sprintf("%.4f", mtps),
					fmt.Sprintf("%.4f", allocs),
					fmt.Sprintf("%.4f", bytes),
				}},
			},
		}},
	}
}

func allocGate(t *testing.T, base, cur bench.Report, extra ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", base)
	c := writeReport(t, dir, "cur.json", cur)
	return gate(t, append([]string{"-baseline", b, "-current", c}, extra...)...)
}

// A zero-allocation baseline must survive self-comparison — log-geomean
// arithmetic cannot represent 0, which is why alloc cells compare per cell.
func TestGateAllocZeroBaselineRoundTrip(t *testing.T) {
	rep := allocReport(1.0, 2.0, 0, 0)
	code, out := allocGate(t, rep, rep)
	if code != 0 || !strings.Contains(out, "alloc 2 cell(s) within threshold") {
		t.Fatalf("zero-alloc self-comparison failed (exit %d):\n%s", code, out)
	}
}

// Introducing one allocation per tuple against a zero baseline must fail —
// the regression the alloc gate exists to catch.
func TestGateAllocFailsOnIncrease(t *testing.T) {
	base := allocReport(1.0, 2.0, 0, 0)
	code, out := allocGate(t, base, allocReport(1.0, 2.0, 1.0, 48.0))
	if code != 1 || !strings.Contains(out, "serial|allocs/tuple") || !strings.Contains(out, "serial|B/tuple") {
		t.Fatalf("1 alloc/tuple regression passed or was not named (exit %d):\n%s", code, out)
	}
}

// Noise below the absolute slack on a zero baseline passes; above it fails.
func TestGateAllocSlack(t *testing.T) {
	base := allocReport(1.0, 2.0, 0, 0)
	if code, out := allocGate(t, base, allocReport(1.0, 2.0, 0.01, 0.3)); code != 0 {
		t.Fatalf("sub-slack noise failed the gate (exit %d):\n%s", code, out)
	}
	if code, _ := allocGate(t, base, allocReport(1.0, 2.0, 0.8, 0)); code != 1 {
		t.Fatal("above-slack increase passed")
	}
}

// Non-zero baselines gate proportionally, and -max-alloc-regress tightens
// the bound like -max-regress does for throughput.
func TestGateAllocProportionalThreshold(t *testing.T) {
	base := allocReport(1.0, 2.0, 8.0, 256.0)
	if code, out := allocGate(t, base, allocReport(1.0, 2.0, 9.0, 280.0)); code != 0 {
		t.Fatalf("within-threshold increase failed (exit %d):\n%s", code, out)
	}
	if code, _ := allocGate(t, base, allocReport(1.0, 2.0, 12.0, 256.0)); code != 1 {
		t.Fatal("+50% alloc increase passed the default threshold")
	}
	if code, _ := allocGate(t, base, allocReport(1.0, 2.0, 9.0, 280.0), "-max-alloc-regress", "0"); code != 1 {
		t.Fatal("tighter alloc threshold did not fail")
	}
}

// Alloc cells are never calibration-scaled: allocation counts are a property
// of the code, not of host speed, so a faster host excuses nothing.
func TestGateAllocIgnoresCalibration(t *testing.T) {
	base := allocReport(1.0, 2.0, 0, 0)
	code, _ := allocGate(t, base, allocReport(4.0, 8.0, 2.0, 64.0))
	if code != 1 {
		t.Fatal("faster-host calibration excused an alloc regression")
	}
}

// An alloc cell that vanished from the current report fails the gate, like
// dropped throughput and latency cells.
func TestGateAllocDroppedCell(t *testing.T) {
	base := allocReport(1.0, 2.0, 0, 0)
	cur := allocReport(1.0, 2.0, 0, 0)
	cur.Experiments[0].Table.Rows[0][2] = "-" // allocs/tuple unparseable
	code, out := allocGate(t, base, cur)
	if code != 1 || !strings.Contains(out, "serial|allocs/tuple") {
		t.Fatalf("dropped alloc cell passed or was not named (exit %d):\n%s", code, out)
	}
}

// Zero-valued alloc cells must be kept by cellMap — dropping them (as the
// geomean directions do) would unhook the gate exactly at its target value.
func TestCellMapKeepsZeroAllocCells(t *testing.T) {
	tbl := bench.Table{
		Columns: []string{"runtime", "Mtps", "allocs/tuple", "B/tuple"},
		Rows:    [][]string{{"serial", "2.0", "0.0000", "0.0000"}},
	}
	m := cellMap(tbl, dirAlloc)
	if len(m) != 2 {
		t.Fatalf("alloc cellMap = %v, want both zero cells", m)
	}
	if v, ok := m["serial|allocs/tuple"]; !ok || v != 0 {
		t.Fatalf("zero allocs/tuple cell dropped: %v", m)
	}
	// The throughput direction must not see the alloc columns.
	if m := cellMap(tbl, dirHigher); len(m) != 1 {
		t.Fatalf("alloc columns leaked into throughput direction: %v", m)
	}
}

// Extra cells only present in the current report (a new row in a sweep) must
// not fail the gate: coverage grew, nothing was hidden.
func TestGateToleratesExtraCurrentCells(t *testing.T) {
	dir := t.TempDir()
	b := writeReport(t, dir, "base.json", report(1.0, 2.0, 2.0))
	c := writeReport(t, dir, "cur.json", report(1.0, 2.0, 2.0, 2.0))
	if code, out := gate(t, "-baseline", b, "-current", c); code != 0 {
		t.Fatalf("grown current report failed (exit %d):\n%s", code, out)
	}
}
