// Package bench defines the figure-regeneration experiments: one experiment
// per table/figure panel of the paper's evaluation (Figures 8a–14), each
// printing the same series the figure plots, plus the repository's own
// ablation experiments (abl-*), including the key-range sharded runtime
// comparisons.
//
// Experiments are parameterized by a Scale so the same code serves fast CI
// runs (Quick), interactive runs (Default), and full-range reproductions
// (Paper). The harness is exercised both by cmd/pimbench and by the
// testing.B benchmarks in the repository root.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// Scale selects sweep ranges and tuple counts.
type Scale int

// The three scales. Paper mode runs the figure's full published range where
// feasible on commodity hardware.
const (
	Quick Scale = iota
	Default
	Paper
)

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "", "default":
		return Default, nil
	case "paper":
		return Paper, nil
	}
	return Default, fmt.Errorf("bench: unknown scale %q (quick|default|paper)", s)
}

// Config is the run-time configuration shared by all experiments.
type Config struct {
	Scale   Scale
	Threads int // worker threads for parallel joins (default GOMAXPROCS)
	Seed    int64
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 42
}

// windowRange returns the powers-of-two window sweep for the scale.
func (c Config) windowRange() []int {
	switch c.Scale {
	case Quick:
		return pows(10, 13)
	case Paper:
		return pows(10, 20)
	default:
		return pows(10, 16)
	}
}

// tuplesFor returns the measurement length for a window of length w: enough
// arrivals to reach and measure steady state, bounded for runtime.
func (c Config) tuplesFor(w int) int {
	base, cap := 0, 0
	switch c.Scale {
	case Quick:
		base, cap = 1<<15, 1<<17
	case Paper:
		base, cap = 1<<21, 1<<23
	default:
		base, cap = 1<<17, 1<<19
	}
	n := 4 * w
	if n < base {
		n = base
	}
	if n > cap {
		n = cap
	}
	return n
}

func pows(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// Experiment is one regenerable figure panel.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in figure order.
func All() []Experiment {
	out := append([]Experiment{}, registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared workload/driver helpers ---

// twoWay builds a symmetric uniform two-stream workload.
func twoWay(n int, seed int64) []stream.Arrival {
	return stream.NewInterleaver(seed, stream.NewUniform(seed+1), stream.NewUniform(seed+2), 0.5).Take(n)
}

// selfStream builds a uniform self-join workload.
func selfStream(n int, seed int64) []stream.Arrival {
	return stream.NewSelfStream(stream.NewUniform(seed + 1)).Take(n)
}

// bandFor returns the band predicate holding the match rate at sigmaS for
// uniform keys against a window of length w (the paper's diff adjustment).
func bandFor(w int, sigmaS float64) join.Band {
	return join.Band{Diff: stream.UniformDiff(w, sigmaS)}
}

// pimParallel and pimSerial return the two-stage index settings used across
// experiments: merge ratio 1 for parallel runs (Figure 9a's finding) and
// 1/16 for single-threaded runs (Figure 9d). The IM-Tree rows use pimSerial
// too; the IM-Tree ignores the insertion depth.
func pimParallel() core.PIMTreeConfig {
	return core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2}
}

func pimSerial() core.PIMTreeConfig {
	return core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: 2}
}

// header prints a figure header line.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "# %s — %s\n", id, title)
}

// row prints tab-separated cells.
func row(w io.Writer, cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.4f", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}

// wLabel formats a window size as 2^k.
func wLabel(w int) string {
	e := 0
	for 1<<e < w {
		e++
	}
	if 1<<e == w {
		return fmt.Sprintf("2^%d", e)
	}
	return fmt.Sprint(w)
}
