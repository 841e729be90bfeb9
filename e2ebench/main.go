// Command e2ebench is the repository's end-to-end benchmark: four workloads,
// five end-to-end metrics each, and a traced variant that reports per-layer
// metrics. See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 42, "input seed: the same seed gives the same arrivals")
		seconds = flag.Int("seconds", 20, "nominal length of the measured phases; fixes the tuple counts")
		trace   = flag.Int("trace", 0, "1: quarter-length traced run reporting the per-layer metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced")
		aa      = flag.Int("aa", 0, "run every workload N times in alternating order and compare two interleaved sets")
		e       env
	)
	flag.StringVar(&e.out, "out", "out", "directory for trace files")
	flag.StringVar(&e.scratch, "scratch", os.TempDir(), "directory for WAL files when /dev/shm is not writable")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload <name> [-seed n] [-seconds 1..60] [-trace 0|1] | -all | -aa N")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(pinnedProcs)

	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds, e)
	case *all:
		err = runAll(*seed, *seconds, e)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", *name, workloadNames())
			os.Exit(2)
		}
		var out outcome
		if out, err = runOne(w, *seed, *seconds, *trace != 0, e); err == nil && !out.correct {
			err = fmt.Errorf("%s: output check failed", w.name)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runOne runs a workload, prints every metric by name with its unit, and ends
// with the one-line JSON result the driver reads.
func runOne(w workload, seed uint64, seconds int, traced bool, e env) (outcome, error) {
	fmt.Printf("# workload %s seed %d seconds %d trace %t GOMAXPROCS %d shards %d\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), pinnedShards)
	run := runWorkload
	if traced {
		run = runTraced
	}
	out, err := run(w, seed, seconds, e)
	if err != nil {
		return out, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, m := range out.notes {
		fmt.Printf("# %-28s %16.4f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range out.metrics {
		fmt.Printf("%-30s %16.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("# matches %d checksum %016x ops %d failed %d\n", out.all.n, out.all.sum, out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Printf("# FAILED CHECK: %s\n", p)
	}
	return out, printResult(out)
}

// printResult writes the result line.
func printResult(out outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, make(map[string]value)}
	for _, m := range out.metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload untraced and traced, and holds the serial and
// sharded runs — same arrivals tuple for tuple — to the same matches.
func runAll(seed uint64, seconds int, e env) error {
	totals := make(map[string]tally)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := runOne(w, seed, seconds, traced, e)
			if err != nil {
				return err
			}
			if !out.correct {
				return fmt.Errorf("%s: output check failed", w.name)
			}
			if !traced {
				totals[w.name] = out.all
			}
		}
	}
	if a, b := totals["serial_uniform"], totals["sharded_uniform"]; a != b {
		return fmt.Errorf("serial_uniform delivered %d matches (sum %016x), sharded_uniform %d (sum %016x) on the same arrivals", a.n, a.sum, b.n, b.sum)
	}
	fmt.Println("# serial_uniform and sharded_uniform agree on match count and checksum")
	return nil
}
