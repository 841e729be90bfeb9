// Package wal is the durability layer behind the sharded join runtimes: a
// per-shard write-ahead log of applied insert ops plus periodic compacting
// snapshots of live window state, so a crashed process can be restarted with
// a multiset-identical window and resume where the durable frontier left off.
//
// # On-disk layout
//
// A WAL directory holds two kinds of files, both built from the same
// CRC-framed record stream (see record.go):
//
//   - seg-<lane>-<seg>.wal — one append-only segment per lane. Lane 0 is the
//     router's meta lane (watermark records written at Drain and snapshot
//     barriers); every shard worker owns one lane and appends an insert
//     record for each tuple it applies. Lanes are single-writer by
//     construction — the shard runtime is single-writer per shard — so no
//     cross-lane ordering is ever needed: the global per-stream sequence
//     already carried by every insert makes replay order-free.
//   - snap-<id>.snap — a compacting snapshot of the full live window
//     (header, tuple chunks, footer), written at a drain barrier via a
//     tmp-file rename. A snapshot anchors truncation: once it is durable,
//     every segment sealed before it is deleted.
//
// # Durability contract
//
// Appends are fsync-batched: each lane syncs after FsyncEvery records, and
// the router syncs every lane at Drain/Close. The durable state after a
// crash is therefore a per-stream PREFIX of the admitted input: recovery
// scans every segment, truncates each lane at its last valid CRC frame,
// walks the largest contiguous per-stream sequence frontier reachable from
// the newest valid snapshot, and discards everything beyond it. Corruption
// (torn tails, bit flips, duplicated records) is detected by the framing and
// reduces to the same prefix property — never a panic.
//
// Matches emitted before the crash are not replayed: delivery is
// at-most-once across a restart; the window state itself is exact.
package wal

import "sync/atomic"

// Tuple is one window tuple as carried by insert records, snapshot chunks
// and every shard refill — the same 21-byte wire layout as the cluster
// handoff codec ([stream u8][key u32][seq u64][ts u64]). Stream is the store
// slot (self-joins fold onto 0); TS is zero for count windows.
type Tuple struct {
	Stream uint8
	Key    uint32
	Seq    uint64
	TS     uint64
}

// Options configures a WAL directory. The window-shape fields mirror the
// owning runtime's configuration; recovery needs them to rebuild eviction
// frontiers from raw sequences and timestamps.
type Options struct {
	Dir        string
	FsyncEvery int // records per lane between fsyncs (default 64; 1 = every record)
	FS         FS  // nil selects the operating system filesystem

	Timed  bool   // time-based windows: records carry event timestamps
	Self   bool   // self-join: one stream, slot 0 only
	WR, WS uint64 // count-window lengths (slot 0 / slot 1)
	Span   uint64 // timed: window duration
	Slack  uint64 // timed: tolerated event-time disorder
}

// State is a recovered engine state: everything the router needs to resume
// with a window multiset-identical to the durable prefix of the crashed run.
type State struct {
	Timed bool
	// Heads are the recovered per-stream global sequence frontiers: the
	// largest contiguous sequence reachable from the newest valid snapshot.
	// Records beyond a hole (an unsynced lane, a truncated tail) are
	// discarded — they are not part of any consistent prefix.
	Heads [2]uint64
	// WMs are the per-slot store eviction watermarks to restore: the
	// count-window frontier Heads-W, or the timed retain-from timestamp.
	WMs [2]uint64
	// MaxTS and Floor seed the reorder buffer in timed mode (zero for count
	// windows): the largest eligible event time and the recovered release
	// watermark.
	MaxTS uint64
	Floor uint64
	// Tuples is the live window at the recovered frontier, globally sorted
	// by sequence (per-slot subsequences are therefore in ring-append order).
	Tuples []Tuple
}

// Stats are the WAL's cumulative counters, shared by every lane of a Log and
// updated with atomics (lanes append from shard worker goroutines while the
// admin plane scrapes).
type Stats struct {
	AppendedRecords atomic.Uint64
	AppendedBytes   atomic.Uint64
	Fsyncs          atomic.Uint64
	Snapshots       atomic.Uint64
	SnapshotNanos   atomic.Uint64
	ReplayRecords   atomic.Uint64
	ReplayNanos     atomic.Uint64
	// Truncations counts corruption events survived: lanes truncated at a
	// bad CRC frame and snapshots rejected as invalid.
	Truncations atomic.Uint64
	// WriteErrors counts appends/syncs abandoned after a filesystem error,
	// and snapshots abandoned for any reason; the first error disables its
	// lane (the engine keeps running, degraded to in-memory, rather than
	// corrupting the log or crashing the join).
	WriteErrors atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of Stats, safe to serialize.
type StatsSnapshot struct {
	AppendedRecords uint64
	AppendedBytes   uint64
	Fsyncs          uint64
	Snapshots       uint64
	SnapshotNanos   uint64
	ReplayRecords   uint64
	ReplayNanos     uint64
	Truncations     uint64
	WriteErrors     uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		AppendedRecords: s.AppendedRecords.Load(),
		AppendedBytes:   s.AppendedBytes.Load(),
		Fsyncs:          s.Fsyncs.Load(),
		Snapshots:       s.Snapshots.Load(),
		SnapshotNanos:   s.SnapshotNanos.Load(),
		ReplayRecords:   s.ReplayRecords.Load(),
		ReplayNanos:     s.ReplayNanos.Load(),
		Truncations:     s.Truncations.Load(),
		WriteErrors:     s.WriteErrors.Load(),
	}
}
