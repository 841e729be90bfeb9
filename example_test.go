package pimtree_test

import (
	"context"
	"fmt"

	"pimtree"
)

// ExampleOpen demonstrates the streaming Engine API: open a long-lived
// session, push tuples incrementally, snapshot progress mid-stream, and
// close for the final statistics. ModeSerial keeps the example synchronous;
// the same lifecycle drives the parallel modes.
func ExampleOpen() {
	e, err := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: 4,
		WindowS: 4,
		Diff:    2, // |R.x - S.x| <= 2
		Backend: pimtree.PIMTree,
	})
	if err != nil {
		panic(err)
	}
	e.Push(pimtree.R, 10)
	e.Push(pimtree.S, 11) // pairs with R's 10
	e.Push(pimtree.S, 40)
	fmt.Println("mid-stream matches:", e.Stats().Matches)
	st, _ := e.Close(context.Background())
	fmt.Println("tuples:", st.Tuples, "matches:", st.Matches)
	// Output:
	// mid-stream matches: 1
	// tuples: 3 matches: 1
}

// ExampleEngine_PushBatch feeds a whole batch through a sharded engine
// session and drains it deterministically before reading the snapshot.
func ExampleEngine_PushBatch() {
	e, err := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: 8,
		WindowS: 8,
		Diff:    1,
		Shards:  2,
	})
	if err != nil {
		panic(err)
	}
	batch := []pimtree.Arrival{
		{Stream: pimtree.R, Key: 10},
		{Stream: pimtree.S, Key: 11}, // pairs with R's 10
		{Stream: pimtree.R, Key: 30},
		{Stream: pimtree.S, Key: 29}, // pairs with R's 30
	}
	if err := e.PushBatch(batch); err != nil {
		panic(err)
	}
	// Drain is the streaming barrier: after it, every pushed tuple's
	// matches are reflected in Stats.
	if err := e.Drain(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("matches after drain:", e.Stats().Matches)
	e.Close(context.Background())
	// Output: matches after drain: 2
}

// ExampleEngine_Matches consumes the pull side: a range-over-func iterator
// that yields matches in propagation order. Arm it before pushing; it ends
// once the engine is closed and the buffer is drained.
func ExampleEngine_Matches() {
	e, err := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: 4,
		WindowS: 4,
		Diff:    0, // exact key equality
	})
	if err != nil {
		panic(err)
	}
	matches := e.Matches() // arm the pull side before the first push
	e.Push(pimtree.R, 7)
	e.Push(pimtree.S, 7)
	e.Push(pimtree.R, 9)
	e.Push(pimtree.S, 9)
	e.Close(context.Background())
	for m := range matches {
		fmt.Printf("stream %d seq %d matched opposite seq %d\n", m.ProbeStream, m.ProbeSeq, m.MatchSeq)
	}
	// Output:
	// stream 1 seq 0 matched opposite seq 0
	// stream 1 seq 1 matched opposite seq 1
}

// ExampleOpen_selfJoin shows a self-join: one stream, one window.
func ExampleOpen_selfJoin() {
	e, _ := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: 8,
		Self:    true,
		Diff:    0, // exact duplicates only
		Backend: pimtree.BPlusTree,
	})
	e.Push(pimtree.R, 5)
	e.Push(pimtree.R, 7)
	e.Push(pimtree.R, 5) // duplicate of the first tuple
	fmt.Println(e.Stats().Matches)
	e.Close(context.Background())
	// Output: 1
}

// ExampleOpen_expiry shows the sliding window dropping old tuples.
func ExampleOpen_expiry() {
	e, _ := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: 2, // keeps only the last two R tuples
		WindowS: 2,
		Diff:    0,
		Backend: pimtree.PIMTree,
	})
	e.Push(pimtree.R, 1)
	e.Push(pimtree.R, 2)
	e.Push(pimtree.R, 3) // evicts key 1 from the R window
	e.Push(pimtree.S, 1)
	fmt.Println(e.Stats().Matches)
	e.Push(pimtree.S, 3)
	fmt.Println(e.Stats().Matches)
	e.Close(context.Background())
	// Output:
	// 0
	// 1
}

// ExampleOpen_sharded runs the key-range sharded multicore join over a batch
// and reports aggregate statistics.
func ExampleOpen_sharded() {
	e, _ := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSharded,
		Shards:  2,
		WindowR: 64,
		WindowS: 64,
		Diff:    1,
	})
	e.PushBatch([]pimtree.Arrival{
		{Stream: pimtree.R, Key: 100},
		{Stream: pimtree.S, Key: 101},
		{Stream: pimtree.R, Key: 500},
		{Stream: pimtree.S, Key: 499},
	})
	st, _ := e.Close(context.Background())
	fmt.Println(st.Tuples, "tuples,", st.Matches, "matches")
	// Output: 4 tuples, 2 matches
}

// ExampleQuantilePartition balances a skewed key distribution across
// shards by cutting the domain at sample quantiles instead of equal widths.
// Any type with Shards() and ShardOf(key) methods plugs in the same way.
func ExampleQuantilePartition() {
	// Nearly all keys fall in a narrow band; equal-width shard ranges
	// would leave most shards idle.
	src := pimtree.GaussianSource(7, 0.5, 0.125)
	sample := make([]uint32, 4096)
	for i := range sample {
		sample[i] = src.Next()
	}
	part := pimtree.QuantilePartition(sample, 4)

	e, _ := pimtree.Open(pimtree.Config{
		Mode:        pimtree.ModeSharded,
		WindowR:     256,
		WindowS:     256,
		Diff:        0, // exact key matches only
		Backend:     pimtree.PIMTree,
		Partitioner: part,
	})
	e.PushBatch(pimtree.Interleave(8,
		pimtree.GaussianSource(9, 0.5, 0.125),
		pimtree.GaussianSource(10, 0.5, 0.125), 0.5, 10000))
	st, _ := e.Close(context.Background())
	fmt.Println("shards:", part.Shards(), "tuples:", st.Tuples)
	// Output: shards: 4 tuples: 10000
}

// ExampleNewIndex uses the PIM-Tree directly as a sliding-window index.
func ExampleNewIndex() {
	ix, _ := pimtree.NewIndex(1024, pimtree.IndexOptions{MergeRatio: 0.5})
	for i := uint32(0); i < 10; i++ {
		ix.Insert(i*10, i) // key, window reference
	}
	var keys []uint32
	ix.Search(25, 55, func(key, ref uint32) bool {
		keys = append(keys, key)
		return true
	})
	fmt.Println(keys)
	// Output: [30 40 50]
}

// ExampleNewTimeJoin demonstrates the time-based window extension.
func ExampleNewTimeJoin() {
	j, _ := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{
		Span: 100, // window covers the last 100 time units
		Diff: 0,
	})
	j.Push(pimtree.R, 7, 0)
	fmt.Println(j.Push(pimtree.S, 7, 50))  // in window
	fmt.Println(j.Push(pimtree.S, 7, 200)) // R tuple long expired
	// Output:
	// 1
	// 0
}

// ExampleNewTimeJoin_outOfOrder enables buffered out-of-order ingestion: a
// LatePolicy plus a Slack lets event times arrive disordered. Tuples are
// joined in timestamp order as the watermark (largest observed timestamp
// minus Slack) releases them; Flush drains the buffer at end-of-stream, and
// tuples later than the slack follow the policy.
func ExampleNewTimeJoin_outOfOrder() {
	j, _ := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{
		Span:       100,
		Diff:       0,
		Slack:      20, // tolerate up to 20 units of disorder
		LatePolicy: pimtree.LateDrop,
	})
	j.Push(pimtree.R, 7, 50)
	j.Push(pimtree.S, 7, 60) // arrives before the R tuple below...
	j.Push(pimtree.R, 9, 45) // ...but only 15 late: admitted in ts order
	j.Push(pimtree.S, 9, 47) // watermark is 40; 47 is admissible too
	flushed := j.Flush()     // drain the reorder buffer
	fmt.Println("matches:", j.Matches(), "of which at flush:", flushed)
	fmt.Println("late dropped:", j.LateDropped(), "max disorder:", j.MaxObservedDisorder())
	// Output:
	// matches: 2 of which at flush: 2
	// late dropped: 0 max disorder: 15
}

// ExampleEngine_PushTimed runs the sharded time-window join over disordered
// input: the router's reorder buffer admits event-time disorder up to Slack,
// and the session reports what it saw.
func ExampleEngine_PushTimed() {
	e, _ := pimtree.Open(pimtree.Config{
		Mode:       pimtree.ModeShardedTime,
		Shards:     2,
		Span:       100,
		MaxLive:    16,
		Diff:       1,
		Slack:      8,
		LatePolicy: pimtree.LateDrop,
	})
	e.PushTimed(pimtree.R, 100, 10)
	e.PushTimed(pimtree.S, 300, 30) // overtook the tuple below
	e.PushTimed(pimtree.R, 300, 25) // 5 late: within slack
	e.PushTimed(pimtree.S, 101, 40) // pairs with key 100
	st, _ := e.Close(context.Background())
	fmt.Println(st.Tuples, "tuples,", st.Matches, "matches,",
		st.LateDropped, "late, max disorder", st.MaxObservedDisorder)
	// Output: 4 tuples, 2 matches, 0 late, max disorder 5
}
