// Package join implements the single-threaded index-based window join of
// Section 2.2 (IBWJ) as the incremental Streaming operator the Engine's
// serial mode runs, over the B+-Tree, the IM-Tree and the PIM-Tree. It also
// holds what the single-writer engines share: the band predicate, the run
// statistics, the per-stream index adapters (Index, NewIndex) and the
// batched TS descent (Locator). Every index walks a probe's key range one
// way, in contiguous runs (Index.QueryPairs), and a run the probe refuses
// ends the walk. The paper's baselines and figure drivers (the nested-loop
// join, the batch IBWJ, the chained index, the step timer and the
// multithreaded joins) are in internal/paper.
package join

import (
	"time"

	"pimtree/internal/metrics"
	"pimtree/internal/stream"
)

// Band is the band-join predicate |R.x - S.x| <= Diff of Section 5.
type Band struct {
	Diff uint32
}

// Range returns the key interval [lo, hi] matching key under the band
// predicate, saturating at the domain edges.
func (b Band) Range(key uint32) (lo, hi uint32) {
	lo = key - b.Diff
	if lo > key {
		lo = 0
	}
	hi = key + b.Diff
	if hi < key {
		hi = ^uint32(0)
	}
	return lo, hi
}

// Matches reports whether two keys satisfy the band predicate.
func (b Band) Matches(a, c uint32) bool {
	if a > c {
		a, c = c, a
	}
	return c-a <= b.Diff
}

// TimedArrival is one tuple arrival with an event timestamp (any uint64
// unit).
type TimedArrival struct {
	Stream uint8
	Key    uint32
	TS     uint64
}

// Stats summarizes one join run.
type Stats struct {
	Tuples    int
	Matches   uint64
	Elapsed   time.Duration
	Merges    int
	MergeTime time.Duration
	// Migrated is filled by the sharded runtime: window tuples its reshape
	// epochs moved across shards.
	Migrated int
	// LateDropped and MaxDisorder are filled by runtimes with out-of-order
	// admission (the timed sharded router): late tuples not joined, and the
	// largest observed event-time lateness.
	LateDropped uint64
	MaxDisorder uint64
}

// Mtps returns the throughput in million tuples per second.
func (s Stats) Mtps() float64 { return metrics.Mtps(s.Tuples, s.Elapsed) }

// MatchSink receives one join result: the probing tuple's stream and
// sequence number plus the matched tuple's sequence number in the opposite
// window. A nil sink means results are only counted. Sinks on parallel
// drivers are invoked during ordered result propagation, so invocations for
// probe tuples follow arrival order.
type MatchSink func(probeStream uint8, probeSeq, matchSeq uint64)

// IndexKind selects the per-stream index of a single-writer engine.
type IndexKind int

// The index structures the service builds.
const (
	IndexBTree IndexKind = iota
	IndexIMTree
	IndexPIMTree
)

// String names the index as in the figures.
func (k IndexKind) String() string {
	switch k {
	case IndexBTree:
		return "B+-Tree"
	case IndexIMTree:
		return "IM-Tree"
	case IndexPIMTree:
		return "PIM-Tree"
	default:
		return "unknown"
	}
}

// opposite returns the other stream id for two-way joins.
func opposite(s uint8) uint8 {
	if s == stream.StreamR {
		return stream.StreamS
	}
	return stream.StreamR
}
