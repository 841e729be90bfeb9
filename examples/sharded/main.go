// Sharded: the key-range sharded runtime driven through the streaming
// Engine API — one long-lived session per run, fed incrementally, with live
// Stats snapshots mid-stream — on a uniform workload, then on a skewed
// workload routed through equal-width ranges, the default stripes and a
// quantile partitioner, which must all find the same matches.
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"pimtree"
)

// drive pushes a workload through one engine session, printing a Stats
// snapshot mid-stream, and returns the final run statistics.
func drive(cfg pimtree.Config, arrivals []pimtree.Arrival) pimtree.RunStats {
	e, err := pimtree.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	half := len(arrivals) / 2
	if err := e.PushBatch(arrivals[:half]); err != nil {
		log.Fatal(err)
	}
	// Mid-stream visibility: Drain brings the session to a deterministic
	// quiescent point, so this snapshot counts every pushed tuple's matches.
	if err := e.Drain(context.Background()); err != nil {
		log.Fatal(err)
	}
	mid := e.Stats()
	fmt.Printf("    mid-stream (%s): %d tuples, %d matches\n", e.Mode(), mid.Tuples, mid.Matches)
	if err := e.PushBatch(arrivals[half:]); err != nil {
		log.Fatal(err)
	}
	st, err := e.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func main() {
	const (
		windowLen = 1 << 14
		tuples    = 1 << 19
	)
	shards := runtime.GOMAXPROCS(0)
	diff := pimtree.DiffForMatchRate(windowLen, 2)

	// Uniform keys over the lower half of the domain: the default stripes
	// spread them over every shard.
	arrivals := pimtree.Interleave(1, pimtree.UniformSource(2), pimtree.UniformSource(3), 0.5, tuples)

	fmt.Printf("uniform workload, %d tuples, %d workers:\n", tuples, shards)
	sharded := drive(pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: windowLen, WindowS: windowLen, Diff: diff,
		Shards: shards,
	}, arrivals)
	fmt.Printf("  sharded (key-range): %7.2f Mtps, %d matches\n", sharded.Mtps, sharded.Matches)

	// Skewed keys: equal-width ranges send almost everything to the central
	// shards; the default stripes and quantile boundaries from a key sample
	// both restore balance.
	src := pimtree.GaussianSource(4, 0.5, 0.125)
	sample := make([]uint32, 1<<13)
	for i := range sample {
		sample[i] = src.Next()
	}
	skewed := pimtree.Interleave(5,
		pimtree.GaussianSource(6, 0.5, 0.125),
		pimtree.GaussianSource(7, 0.5, 0.125), 0.5, tuples)
	skewDiff := pimtree.CalibrateDiff(func(s int64) pimtree.KeySource {
		return pimtree.GaussianSource(s, 0.5, 0.125)
	}, windowLen, 2)

	base := pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: windowLen, WindowS: windowLen, Diff: skewDiff,
		Shards: shards,
	}
	eq := base
	eq.Partitioner = pimtree.RangePartition(shards)
	equal := drive(eq, skewed)
	striped := drive(base, skewed)
	quant := base
	quant.Partitioner = pimtree.QuantilePartition(sample, shards)
	quantile := drive(quant, skewed)
	fmt.Printf("gaussian skew workload:\n")
	fmt.Printf("  equal-width shards:  %7.2f Mtps, %d matches\n", equal.Mtps, equal.Matches)
	fmt.Printf("  striped (default):   %7.2f Mtps, %d matches\n", striped.Mtps, striped.Matches)
	fmt.Printf("  quantile shards:     %7.2f Mtps, %d matches\n", quantile.Mtps, quantile.Matches)
	if equal.Matches != striped.Matches || striped.Matches != quantile.Matches {
		log.Fatalf("partitioners disagree: %d / %d / %d matches", equal.Matches, striped.Matches, quantile.Matches)
	}
}
