// Command pimbench regenerates the paper's evaluation figures plus this
// repository's own ablations (including the sharded-vs-shared runtime and
// shard-partitioner comparisons). Each experiment prints the
// series the corresponding figure plots, as a tab-separated table (see
// README.md for the experiment list and docs/ARCHITECTURE.md for the
// paper-to-package mapping).
//
// Usage:
//
//	pimbench -list
//	pimbench -exp fig10a [-scale quick|default|paper] [-threads N] [-seed S]
//	pimbench -all [-scale quick] [-json bench.json]
//
// With -json, the run also writes a machine-readable report (parsed tables,
// per-experiment runtime, and a host-speed calibration) in the format of the
// committed BENCH_*.json baselines; cmd/benchgate compares two such reports
// and fails on throughput regressions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pimtree/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "experiment id to run (e.g. fig8a); see -list")
		all      = fs.Bool("all", false, "run every experiment")
		list     = fs.Bool("list", false, "list experiments and exit")
		scale    = fs.String("scale", "default", "sweep scale: quick | default | paper")
		threads  = fs.Int("threads", 0, "worker threads for parallel joins (0 = GOMAXPROCS)")
		seed     = fs.Int64("seed", 42, "workload seed")
		jsonPath = fs.String("json", "", "also write a machine-readable report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
		}
		return 0
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := bench.Config{Scale: sc, Threads: *threads, Seed: *seed}

	var exps []bench.Experiment
	switch {
	case *all:
		exps = bench.All()
	case *expID != "":
		e, ok := bench.ByID(*expID)
		if !ok {
			fmt.Fprintf(stderr, "pimbench: unknown experiment %q; use -list\n", *expID)
			return 2
		}
		exps = []bench.Experiment{e}
	default:
		fmt.Fprintln(stderr, "pimbench: pass -exp <id>, -all, or -list")
		return 2
	}

	var report *bench.Report
	if *jsonPath != "" {
		report = bench.NewReport(*scale, effectiveThreads(*threads), *seed)
	}

	fmt.Fprintf(stdout, "# pimbench: scale=%s threads=%d GOMAXPROCS=%d seed=%d\n",
		*scale, effectiveThreads(*threads), runtime.GOMAXPROCS(0), *seed)

	for _, e := range exps {
		var buf bytes.Buffer
		out := io.Writer(stdout)
		if report != nil {
			out = io.MultiWriter(stdout, &buf)
		}
		start := time.Now()
		e.Run(cfg, out)
		elapsed := time.Since(start)
		if *all {
			fmt.Fprintf(stdout, "# (%s took %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		}
		if report != nil {
			if err := report.Add(buf.String(), elapsed); err != nil {
				fmt.Fprintf(stderr, "pimbench: %s: %v\n", e.ID, err)
				return 1
			}
		}
	}

	if report != nil {
		if err := writeReport(*jsonPath, report); err != nil {
			fmt.Fprintln(stderr, "pimbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# report written to %s\n", *jsonPath)
	}
	return 0
}

func writeReport(path string, r *bench.Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func effectiveThreads(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
