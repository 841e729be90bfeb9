// Quickstart: a minimal sliding-window band join over two synthetic streams
// using the PIM-Tree backend — the smallest end-to-end use of the public
// API.
//
// It opens a serial engine session, pushes tuples one at a time, and reads
// the session statistics on Close. examples/sharded and examples/outoforder
// show the parallel modes and the pull-side iterator.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pimtree"
)

func main() {
	const (
		windowLen = 1 << 14 // 16K tuples per window
		tuples    = 500_000
	)

	// A band width that yields roughly two matches per tuple against a
	// window of uniform keys (the paper's default workload).
	diff := pimtree.DiffForMatchRate(windowLen, 2)

	e, err := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: windowLen,
		WindowS: windowLen,
		Diff:    diff,
		Backend: pimtree.PIMTree,
		// Only the match count is wanted; nothing consumes the matches.
		DiscardMatches: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two deterministic uniform streams, interleaved 50/50.
	arrivals := pimtree.Interleave(1, pimtree.UniformSource(2), pimtree.UniformSource(3), 0.5, tuples)

	for _, a := range arrivals {
		if err := e.Push(a.Stream, a.Key); err != nil {
			log.Fatal(err)
		}
	}
	st, err := e.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("processed %d tuples in %v (%.2f Mtps)\n",
		st.Tuples, st.Elapsed.Round(time.Millisecond), st.Mtps)
	fmt.Printf("matches: %d (%.2f per tuple, target 2.0)\n",
		st.Matches, float64(st.Matches)/float64(st.Tuples))
	fmt.Printf("index merges: %d, total merge time %v\n", st.Merges, st.MergeTime.Round(time.Millisecond))
}
