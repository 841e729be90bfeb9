// Command benchgate compares two pimbench JSON reports (see pimbench -json,
// pimload -json) and fails on regressions — the comparator behind CI's
// bench-smoke and pimload-smoke jobs and the committed BENCH_*.json
// baselines.
//
//	benchgate -baseline BENCH_PR4.json -current bench_current.json
//	benchgate -baseline LOAD_BASE.json -current load.json -prefix load- -max-lat-regress 0.5
//
// Gating is direction-aware per cell. Every numeric cell of a gated
// experiment is classified by its column name:
//
//   - counters (rebalances, migrated, sent, matches, ...) are never gated;
//   - latency columns (µs, ms, latency, nanos fragments) are lower-is-better
//     and fail on *increase* beyond -max-lat-regress;
//   - allocation columns (alloc, B/op, B/tuple fragments) are lower-is-better
//     and fail on *increase* beyond -max-alloc-regress — compared cell by
//     cell in absolute terms rather than by geomean, because the healthy
//     baseline value is exactly zero, which a log-mean cannot represent;
//   - everything else (Mtps throughput, offered/s, cap/s rates) is
//     higher-is-better and fails on *decrease* beyond -max-regress.
//
// Latency gating is opt-in (-max-lat-regress 0 disables it, the default):
// the latency columns of the closed-loop quick-scale ablations are
// scheduling-noise dominated and would flake; open-loop pimload reports are
// the intended gated consumer. Ungated latency cells are still reported.
//
// Each direction's cells are reduced to a geometric mean per experiment.
// Reports carry a host-speed calibration (a fixed serial microbenchmark
// measured at report time); comparisons are scaled by the calibration ratio
// — inversely for latency, where a faster host is expected to be
// proportionally lower — so a baseline recorded on a slower or faster
// machine than the CI runner stays usable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"pimtree/internal/bench"
)

// counterColumns are numeric columns that measure neither throughput nor
// latency — event counts whose drift is not a regression in either
// direction. They never enter a geomean.
var counterColumns = map[string]bool{
	"rebalances": true,
	"migrated":   true,
	"merges":     true,
	"sent":       true,
	"matches":    true,
	"trials":     true,
	"errors":     true,
	"gc cycles":  true,
}

// latencySubstrings classify lower-is-better time columns by fragment, so
// new experiments whose units are microseconds or milliseconds gate in the
// right direction without registering each column name here.
var latencySubstrings = []string{"µs", "ms", "latency", "nanos"}

// allocSubstrings classify GC-pressure columns (allocs/tuple, B/tuple and
// the benchmem-style allocs/op, B/op). They are checked before the latency
// fragments so "allocs/op" does not fall through to the rate bucket.
var allocSubstrings = []string{"alloc", "b/op", "b/tuple"}

// Cell directions.
const (
	dirSkip   = 0  // counters: never gated
	dirHigher = 1  // throughput/rates: fail on decrease
	dirLower  = -1 // latency: fail on increase
	dirAlloc  = 2  // allocations: fail on increase, compared per cell
)

// allocSlack is the absolute headroom added to every alloc-cell bound. The
// healthy baseline is exactly 0.00, where a fractional threshold alone would
// make any measurement noise (background goroutines share the process-wide
// GC counters) a failure; half an object or half a byte per tuple still
// catches the one-allocation-per-tuple regressions the gate exists for.
const allocSlack = 0.5

// direction classifies a column name.
func direction(name string) int {
	lower := strings.ToLower(name)
	if counterColumns[lower] {
		return dirSkip
	}
	for _, frag := range allocSubstrings {
		if strings.Contains(lower, frag) {
			return dirAlloc
		}
	}
	for _, frag := range latencySubstrings {
		if strings.Contains(lower, frag) {
			return dirLower
		}
	}
	return dirHigher
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath  = fs.String("baseline", "", "baseline report (e.g. BENCH_PR4.json)")
		curPath   = fs.String("current", "", "report of the run under test")
		maxReg    = fs.Float64("max-regress", 0.25, "maximum tolerated throughput decrease (fraction)")
		maxLatReg = fs.Float64("max-lat-regress", 0, "maximum tolerated latency increase (fraction); 0 reports latency without gating it")
		maxAllReg = fs.Float64("max-alloc-regress", 0.25, "maximum tolerated allocation increase (fraction, plus a fixed absolute slack)")
		calibrate = fs.Bool("calibrate", true, "scale by the reports' host calibration ratio")
		prefix    = fs.String("prefix", "abl-", "gate experiments whose id has this prefix")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *curPath == "" {
		fmt.Fprintln(stderr, "benchgate: -baseline and -current are required")
		return 2
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}

	scale := 1.0
	if *calibrate && base.CalibMtps > 0 && cur.CalibMtps > 0 {
		scale = cur.CalibMtps / base.CalibMtps
	}
	fmt.Fprintf(stdout, "benchgate: calibration baseline=%.3f current=%.3f scale=%.3f threshold=%.0f%% lat-threshold=%.0f%% alloc-threshold=%.0f%%\n",
		base.CalibMtps, cur.CalibMtps, scale, *maxReg*100, *maxLatReg*100, *maxAllReg*100)
	if base.GOMAXPROCS != cur.GOMAXPROCS {
		// The serial calibration corrects for single-thread speed, not core
		// count, so parallel-scaling regressions are under-protected until
		// the baseline is regenerated on a host shaped like the runner.
		fmt.Fprintf(stdout, "benchgate: WARNING: GOMAXPROCS differs (baseline=%d, current=%d); "+
			"parallel cells compare loosely — refresh the baseline from this host's report\n",
			base.GOMAXPROCS, cur.GOMAXPROCS)
	}

	curByID := make(map[string]bench.ExperimentResult, len(cur.Experiments))
	for _, e := range cur.Experiments {
		curByID[e.ID] = e
	}

	classes := []struct {
		name   string
		dir    int
		thresh float64
		gated  bool
	}{
		{"throughput", dirHigher, *maxReg, true},
		{"latency", dirLower, *maxLatReg, *maxLatReg > 0},
	}

	failures := 0
	gated := 0
	for _, b := range base.Experiments {
		if !strings.HasPrefix(b.ID, *prefix) {
			continue
		}
		gated++
		c, ok := curByID[b.ID]
		if !ok {
			fmt.Fprintf(stdout, "FAIL %-16s missing from current report\n", b.ID)
			failures++
			continue
		}
		present := 0
		for _, cl := range classes {
			gBase, gCur, cells, dropped := compare(b.Table, c.Table, cl.dir)
			if cells == 0 && len(dropped) == 0 {
				continue // this experiment has no cells in this direction
			}
			present += cells
			if !cl.gated {
				if cells > 0 {
					fmt.Fprintf(stdout, "info %-16s %s geomean %.4f -> %.4f over %d cells (not gated)\n",
						b.ID, cl.name, gBase, gCur, cells)
				}
				continue
			}
			if cells == 0 {
				fmt.Fprintf(stdout, "FAIL %-16s no comparable %s cells (refresh the baseline?)\n", b.ID, cl.name)
				failures++
				continue
			}
			// A cell present in the baseline but missing (or non-positive) in
			// the current report would silently shrink the geomean — and a
			// regression could hide in exactly the cells that vanished.
			// Shrunken coverage is itself a failure.
			if len(dropped) > 0 {
				fmt.Fprintf(stdout, "FAIL %-16s %d of %d baseline %s cell(s) missing or non-positive in current report: %s\n",
					b.ID, len(dropped), cells+len(dropped), cl.name, strings.Join(dropped, ", "))
				failures++
			}
			var ratio float64
			var verdict bool
			if cl.dir == dirHigher {
				ratio = gCur / (gBase * scale)
				verdict = ratio >= 1-cl.thresh
			} else {
				// A faster host (scale > 1) should be proportionally lower.
				ratio = gCur * scale / gBase
				verdict = ratio <= 1+cl.thresh
			}
			status := "ok  "
			if !verdict {
				status = "FAIL"
				failures++
			}
			note := ""
			if cl.dir == dirLower {
				note = ", lower is better"
			}
			fmt.Fprintf(stdout, "%s %-16s %s geomean %.4f -> %.4f over %d cells (%.0f%% of calibrated baseline%s)\n",
				status, b.ID, cl.name, gBase, gCur, cells, ratio*100, note)
		}
		// Alloc cells gate per cell, absolutely and uncalibrated: allocation
		// counts are a property of the code, not of host speed, and their
		// healthy baseline (0.00) sits where geomean arithmetic misleads.
		aBad, aCells, aDropped := compareAbs(b.Table, c.Table, dirAlloc, *maxAllReg, allocSlack)
		present += aCells
		if len(aDropped) > 0 {
			fmt.Fprintf(stdout, "FAIL %-16s %d baseline alloc cell(s) missing or unparseable in current report: %s\n",
				b.ID, len(aDropped), strings.Join(aDropped, ", "))
			failures++
		}
		for _, bad := range aBad {
			fmt.Fprintf(stdout, "FAIL %-16s alloc cell %s\n", b.ID, bad)
			failures++
		}
		if aCells > 0 && len(aBad) == 0 {
			fmt.Fprintf(stdout, "ok   %-16s alloc %d cell(s) within threshold (per-cell, uncalibrated)\n", b.ID, aCells)
		}
		if present == 0 {
			fmt.Fprintf(stdout, "FAIL %-16s no comparable cells (refresh the baseline?)\n", b.ID)
			failures++
		}
	}
	if gated == 0 {
		fmt.Fprintf(stdout, "FAIL no experiments with prefix %q in baseline\n", *prefix)
		failures++
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "benchgate: %d failure(s)\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "benchgate: pass")
	return 0
}

// compare returns the geometric means of the dir-classified cells shared by
// the two tables (matched by row label and column name), the shared-cell
// count, and the sorted keys of baseline cells with no usable counterpart in
// the current table — the caller fails the gate when coverage shrank.
func compare(base, cur bench.Table, dir int) (gBase, gCur float64, cells int, dropped []string) {
	bc := cellMap(base, dir)
	cc := cellMap(cur, dir)
	var sumB, sumC float64
	for key, vb := range bc {
		vc, ok := cc[key]
		if !ok {
			dropped = append(dropped, key)
			continue
		}
		sumB += math.Log(vb)
		sumC += math.Log(vc)
		cells++
	}
	sort.Strings(dropped)
	if cells == 0 {
		return 0, 0, 0, dropped
	}
	return math.Exp(sumB / float64(cells)), math.Exp(sumC / float64(cells)), cells, dropped
}

// compareAbs gates dir-classified cells individually: a current cell fails
// when it exceeds base*(1+thresh) + slack. It returns descriptions of the
// failing cells, the shared-cell count, and the sorted keys of baseline
// cells with no parseable counterpart in the current table. Used for the
// alloc direction, whose healthy value (0.0) sits where geomean arithmetic
// misleads.
func compareAbs(base, cur bench.Table, dir int, thresh, slack float64) (bad []string, cells int, dropped []string) {
	bc := cellMap(base, dir)
	cc := cellMap(cur, dir)
	keys := make([]string, 0, len(bc))
	for key := range bc {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		vb := bc[key]
		vc, ok := cc[key]
		if !ok {
			dropped = append(dropped, key)
			continue
		}
		cells++
		if bound := vb*(1+thresh) + slack; vc > bound {
			bad = append(bad, fmt.Sprintf("%s %.4f -> %.4f (max %.4f)", key, vb, vc, bound))
		}
	}
	return bad, cells, dropped
}

// cellMap extracts a table's numeric cells whose column classifies as dir,
// keyed by "<row label>|<column name>". The first column is the row label.
// Geomean directions keep only positive values (log-mean domain); alloc
// cells keep zero, the value the alloc gate exists to defend.
func cellMap(t bench.Table, dir int) map[string]float64 {
	out := make(map[string]float64)
	for _, row := range t.Rows {
		if len(row) == 0 {
			continue
		}
		for j := 1; j < len(row) && j < len(t.Columns); j++ {
			if direction(t.Columns[j]) != dir {
				continue
			}
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil || v < 0 || (v == 0 && dir != dirAlloc) {
				continue
			}
			out[row[0]+"|"+t.Columns[j]] = v
		}
	}
	return out
}

func load(path string) (*bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
