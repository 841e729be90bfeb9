package pimtree

import (
	"time"

	"pimtree/internal/join"
	"pimtree/internal/shard"
	"pimtree/internal/stream"
)

// StreamID names the two input streams of a band join.
type StreamID uint8

// The two streams. Self-joins use R for every tuple.
const (
	R StreamID = StreamID(stream.StreamR)
	S StreamID = StreamID(stream.StreamS)
)

// Backend selects the index structure behind a join. Every backend runs in
// every Mode.
type Backend int

// Available backends; PIMTree is the paper's contribution, the others are
// its evaluated baselines. (The paper's Bw-Tree and chained indexes run only
// behind its figures, in pimbench: neither earns its keep under the
// Engine's single-writer runtimes.)
const (
	PIMTree Backend = iota
	IMTree          // the PIM-Tree at insertion depth 0 (Section 3.2)
	BPlusTree
)

// String names the backend, or returns "unknown" for a value outside the
// constants.
func (b Backend) String() string {
	if k, ok := b.kind(); ok {
		return k.String()
	}
	return "unknown"
}

func (b Backend) kind() (join.IndexKind, bool) {
	switch b {
	case PIMTree:
		return join.IndexPIMTree, true
	case IMTree:
		return join.IndexIMTree, true
	case BPlusTree:
		return join.IndexBTree, true
	default:
		return 0, false
	}
}

// Match is one join output: the probing tuple and the matched tuple of the
// opposite window, identified by their per-stream sequence numbers.
type Match struct {
	ProbeStream StreamID
	ProbeSeq    uint64
	MatchSeq    uint64
}

// Arrival is one tuple arrival for Engine.PushBatch and the workload
// generators. TS is the event timestamp, read only by the time-window modes.
type Arrival struct {
	Stream StreamID
	Key    uint32
	TS     uint64
}

// RunStats summarizes an engine session (Engine.Stats, Engine.Close).
type RunStats struct {
	Tuples    int
	Matches   uint64
	Elapsed   time.Duration
	Mtps      float64
	Merges    int
	MergeTime time.Duration
	// MigratedTuples counts the window tuples reshape epochs moved to
	// another shard (zero outside the sharded modes).
	MigratedTuples int
	// LateDropped and MaxObservedDisorder report the out-of-order ingestion
	// layer of the time-based runtimes: tuples later than Slack that were
	// not joined, and the largest observed event-time lateness (zero when
	// ingestion ran in strict LateNone mode).
	LateDropped         uint64
	MaxObservedDisorder uint64
	// Imbalance is the sharded modes' load-imbalance ratio over resident
	// window tuples, max(shard)/mean(shard): 1 is perfectly balanced, the
	// shard count means all tuples on one shard, 0 means none yet (or a
	// non-sharded mode).
	Imbalance float64
	// GC pressure since Open, sourced from runtime/metrics and diffed
	// against the snapshot taken at Open. These are process-wide counters:
	// in an otherwise idle process they measure the session's hot path; a
	// process running several sessions sees their sum in each. The per-tuple
	// ratios are the steady-state allocation rates the zero-allocation hot
	// path drives toward zero.
	AllocObjects   uint64        // heap objects allocated since Open
	AllocBytes     uint64        // heap bytes allocated since Open
	AllocsPerTuple float64       // AllocObjects / Tuples (0 when no tuples)
	BytesPerTuple  float64       // AllocBytes / Tuples (0 when no tuples)
	GCCycles       uint64        // GC cycles completed since Open
	GCPauseTotal   time.Duration // approximate total GC stop-the-world pause since Open
}

// ShardLoad is one shard's live load snapshot, returned by Engine.ShardLoads
// in the sharded modes.
type ShardLoad struct {
	QueueDepth int // op batches pending in the shard's queue
	// QueueHW is the monotonic high-water mark of QueueDepth since the
	// shard was (re)created — a reshape that changes the shard count starts
	// fresh marks. Sustained pressure shows up here even when instantaneous
	// depth samples keep missing it.
	QueueHW  uint64
	Resident int // tuples currently stored by the shard (both streams)
}

// Partitioner maps join keys to shards for the sharded runtime.
// Implementations must be monotone: each shard owns a contiguous key range
// and ranges are ordered by shard id, so a band probe's interval
// [key-Diff, key+Diff] maps to a contiguous run of shards. RangePartition
// and QuantilePartition construct the two built-in policies; custom
// implementations plug in the same way.
//
// Leaving Config.Partitioner nil selects neither: the default deals stripes
// at least 256 bands wide to the shards round-robin, so any key band wider
// than a few stripes — uniform keys over part of the domain, or a hot band —
// loads every shard. Set a Partitioner only to pin contiguous ranges
// (RangePartition) or to balance a static skew narrower than one stripe
// (QuantilePartition).
type Partitioner interface {
	// Shards returns the number of shards the partitioner routes to.
	Shards() int
	// ShardOf returns the shard owning key, in [0, Shards()).
	ShardOf(key uint32) int
}

// RangePartition returns a partitioner splitting the uint32 key domain into
// shards equal-width contiguous ranges — balanced only when keys cover the
// whole domain evenly. UniformSource's keys do not: they lie below
// KeySpace = 2^31, so the upper half of the shards gets none of them. The default partitioner (Config.Partitioner nil) falls back to it
// when the band is too wide to stripe, with the same trap.
func RangePartition(shards int) Partitioner {
	if shards <= 0 {
		shards = 1
	}
	return shard.NewRangePartitioner(shards)
}

// QuantilePartition returns a partitioner whose shard boundaries are the
// quantiles of the given key sample, balancing per-shard load under skewed
// key distributions. Heavy skew may collapse duplicate quantiles, so the
// effective shard count (Shards) can be lower than requested.
func QuantilePartition(sample []uint32, shards int) Partitioner {
	if shards <= 0 {
		shards = 1
	}
	return shard.NewQuantilePartitioner(sample, shards)
}
