// Out-of-order ingestion: event-time streams never arrive perfectly sorted
// — network jitter, retries, and multi-source fan-in all disorder them. This
// demo builds a timestamp-sorted workload, applies a bounded-disorder
// shuffle, and shows the sharded-time engine joining the shuffled stream
// with exactly the match count of the strict TimeJoin over the sorted
// original, as long as the configured Slack covers the disorder: at one
// shard, and at the default shard count driven through the streaming Engine
// API (PushTimed + pull-side Matches). It then tightens the slack below the
// actual disorder and shows the late-tuple policy taking over.
//
// Run with:
//
//	go run ./examples/outoforder
package main

import (
	"context"
	"fmt"
	"log"

	"pimtree"
)

func main() {
	const (
		tuples  = 400_000
		span    = 1 << 15 // window duration in timestamp units
		slack   = 1 << 9  // tolerated disorder
		diff    = 1 << 12 // band half-width
		maxLive = 1 << 13
	)

	// A sorted two-stream workload with irregular event-time gaps, then a
	// shuffle whose disorder is bounded by the slack.
	sorted := pimtree.TimestampArrivals(7,
		pimtree.Interleave(8, pimtree.UniformSource(9), pimtree.UniformSource(10), 0.5, tuples), 4)
	shuffled := pimtree.ShuffleWithinSlack(11, sorted, slack)

	// Reference: the strict serial join over the sorted original.
	oracle, err := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{Span: span, Diff: diff})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range sorted {
		oracle.Push(a.Stream, a.Key, a.TS)
	}
	fmt.Printf("sorted oracle:       %d matches over %d tuples\n", oracle.Matches(), tuples)

	// 1. The sharded-time engine at one shard: disorder is admitted at the
	// router and the join runs on a single worker.
	one, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeShardedTime, Shards: 1,
		Span: span, MaxLive: maxLive, Diff: diff,
		Slack: slack, LatePolicy: pimtree.LateDrop,
		DiscardMatches: true, // count only; no match materialization
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range shuffled {
		if err := one.PushTimed(a.Stream, a.Key, a.TS); err != nil {
			log.Fatal(err)
		}
	}
	ost, err := one.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Engine, 1 shard:     %d matches, %d late, max disorder %d\n",
		ost.Matches, ost.LateDropped, ost.MaxObservedDisorder)

	// 2. The sharded-time engine at the default shard count: matches stream
	// out through the pull side while tuples stream in.
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeShardedTime,
		Span: span, MaxLive: maxLive, Diff: diff,
		Slack: slack, LatePolicy: pimtree.LateDrop,
	})
	if err != nil {
		log.Fatal(err)
	}
	pulled := make(chan uint64, 1)
	matches := e.Matches() // arm the pull side before the first push
	go func() {
		var n uint64
		for range matches {
			n++
		}
		pulled <- n
	}()
	for _, a := range shuffled {
		if err := e.PushTimed(a.Stream, a.Key, a.TS); err != nil {
			log.Fatal(err)
		}
	}
	st, err := e.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Engine, default:     %d matches, %d late (%.2f Mtps, pull side saw %d)\n",
		st.Matches, st.LateDropped, st.Mtps, <-pulled)

	if ost.Matches != oracle.Matches() || st.Matches != oracle.Matches() {
		log.Fatal("an engine disagreed with the sorted oracle")
	}
	fmt.Println("both engines reproduced the sorted oracle exactly")

	// Tighten the slack below the actual disorder: late tuples appear and
	// follow the policy — here the side-channel callback.
	lates := 0
	tight, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeShardedTime,
		Span: span, MaxLive: maxLive, Diff: diff,
		Slack: slack / 16, LatePolicy: pimtree.LateCall,
		OnLate:         func(pimtree.TimedArrival, uint64) { lates++ },
		DiscardMatches: true, // count only; no match materialization
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range shuffled {
		if err := tight.PushTimed(a.Stream, a.Key, a.TS); err != nil {
			log.Fatal(err)
		}
	}
	tst, err := tight.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slack/16 + LateCall: %d matches, %d tuples handed to the side channel\n",
		tst.Matches, lates)
	if lates == 0 {
		log.Fatal("expected late tuples under the tightened slack")
	}
}
