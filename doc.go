// Package pimtree is a Go implementation of the Partitioned In-memory
// Merge-Tree (PIM-Tree) and the parallel index-based sliding-window join
// built on it, reproducing "Parallel Index-based Stream Join on a Multicore
// CPU" (Shahvarani & Jacobsen, SIGMOD 2020).
//
// # The Engine API
//
// The primary entry point is Open: it validates one Config and returns a
// long-lived streaming *Engine over the selected execution Mode —
// single-threaded serial (ModeSerial), the key-range sharded runtime
// (ModeSharded), or the sharded time-window runtime with out-of-order
// admission (ModeShardedTime). ModeAuto picks a mode from the rest of the
// configuration.
//
// An Engine is a session, not a batch call: Push/PushTimed/PushBatch feed
// tuples as they arrive, forever. Matches stream out on two sides — the
// push side (Config.OnMatch, invoked in arrival order during ordered
// propagation) and the pull side (Engine.Matches, a range-over-func
// iterator, or Engine.MatchBatches, the same stream in runs taken under one
// lock each). Stats returns live snapshots mid-stream; Drain flushes pending
// shard batches and reorder buffers to a deterministic quiescent point; Close tears the session down and returns
// the final statistics. Both Drain and Close take a context.Context, so a
// stuck or slow shutdown is cancellable. The sharded modes bound their
// in-flight tuples by Config.QueueCapacity and block Push when the ordered
// propagation frontier falls that far behind — backpressure, not unbounded
// queueing.
//
// Every mode produces the identical match multiset as the serial join on
// the same input, regardless of push granularity, shard count, or
// scheduling — the engine-conformance test suite pins this.
//
// # The runtimes and other levels
//
//   - ModeSerial: the incremental single-threaded band join. Matches are
//     dispatched before Push returns. Every Backend (PIM-Tree, IM-Tree,
//     B+-Tree) runs in every mode; the IM-Tree is the PIM-Tree at
//     insertion depth 0, one unpartitioned mutable stage. The paper's
//     Bw-Tree and chained indexes, and its nested-loop join, run only
//     behind its figures (cmd/pimbench); this package links none of them.
//
//   - ModeSharded: the key-range sharded parallel join. The key domain is
//     dealt to K independent single-writer join instances fed through
//     batched per-shard queues — by default in equal-width stripes at
//     least 256 bands wide, round-robin, so a hot key band wider than a
//     few stripes loads every shard. A band probe fans out to the owner of
//     every stripe [key-Diff, key+Diff] touches, and an order-preserving
//     merge stage re-sequences matches into global arrival order. The
//     Partitioner hook (RangePartition, QuantilePartition, or a custom
//     implementation) replaces the stripes with one contiguous range per
//     shard — QuantilePartition balances a static skew narrower than one
//     stripe. Engine.Reconfigure reshapes a running engine to another
//     shard count, migrating live window contents into a fresh striped
//     shard set.
//
// The time-based variants — TimeJoin (the strict serial reference, whose
// timestamps must not decrease) and ModeShardedTime (the runtime, at any
// Shards, 1 included) — realize the paper's Section 2.1 time-window
// extension. ModeShardedTime adds out-of-order event-time ingestion: setting
// a LatePolicy (plus a Slack) admits disordered arrivals through a
// watermark-driven reorder buffer, joining any input whose disorder stays
// within Slack exactly like its timestamp-sorted equivalent. Tuples later
// than the slack are dropped (LateDrop), admitted clamped to the watermark
// (LateEmit), or handed to an OnLate side channel (LateCall);
// RunStats.LateDropped and RunStats.MaxObservedDisorder report what the
// stream actually did.
//
// Workload helpers (UniformSource, GaussianSource, GammaSource,
// DriftingGaussianSource, StepSkewSource, DriftingHotspotSource,
// Interleave) regenerate the paper's synthetic streams plus moving hot-band
// workloads that stress key-range sharding; DiffForMatchRate and
// CalibrateDiff pick band widths that hit a target match rate, and
// TimestampArrivals/ShuffleWithinSlack turn any of them into sorted or
// bounded-disorder event-time workloads.
//
// # Serving over the network
//
// The engine also runs as a network service: internal/server wraps a
// long-lived Engine behind a length-prefixed binary TCP protocol (batched
// ingest, match egress to subscribers with bounded per-consumer queues, and
// drain round-trips) plus an HTTP admin endpoint exposing /stats, /metrics
// (Prometheus text format), and /healthz, surfaced on the command line as
// `pimjoin serve` with graceful SIGTERM drain. Engine.ShardLoads and the
// live RunStats fields (MigratedTuples, Imbalance) make the sharded layer
// observable mid-stream, both from Stats and from the admin endpoint. The wire-protocol specification, shutdown semantics,
// and the metric reference live in docs/OPERATIONS.md; docs/TUNING.md maps
// workload shape to Mode/Backend/Shards/QueueCapacity/Slack choices.
//
// The repository also contains the full evaluation harness: cmd/pimbench
// regenerates every figure of the paper's evaluation section plus the
// repository's own ablations, including the engine-overhead,
// sharded-vs-shared, and serving-layer wire-overhead comparisons (see
// docs/ARCHITECTURE.md for the paper-to-package map); the paper's
// multi-threaded shared-index join (Section 4) runs there, behind the
// figures, and not as an Engine mode, cmd/pimjoin runs
// ad-hoc joins — batch, stdin-streamed, or network-served through a live
// Engine — from the command line, and cmd/pimload load-tests a served
// engine with an open-loop, coordinated-omission-safe arrival schedule,
// measuring end-to-end match latency and searching for the maximum
// sustainable rate under a latency SLO (see docs/OPERATIONS.md).
package pimtree
