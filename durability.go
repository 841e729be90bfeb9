package pimtree

import (
	"fmt"

	"pimtree/internal/wal"
)

// Durability configures the write-ahead log behind the sharded modes:
// setting Dir makes the window state durable. Every shard worker appends
// each applied insert to its own log lane (fsync-batched), the router writes
// periodic compacting snapshots of the live window, and a crashed process
// reopened on the same directory recovers a multiset-identical window —
// the largest per-stream prefix of the admitted input that reached disk —
// and resumes from it (see internal/wal for the on-disk contract).
//
// Matches emitted before a crash are not replayed: match delivery is
// at-most-once across a restart; the recovered window state itself is exact.
//
// Requires ModeSharded or ModeShardedTime; with ModeAuto, setting Dir
// selects a sharded mode like the other sharded knobs.
type Durability struct {
	// Dir is the WAL directory (created if missing). Empty disables
	// durability — the default, and the configuration every steady-state
	// allocation pin is measured against.
	Dir string
	// FsyncEvery batches lane fsyncs: each shard lane syncs its segment
	// after this many appended records (default 64). 1 syncs every record —
	// the strongest contract and the slowest. Drain always syncs every lane
	// regardless, making it the deterministic durability checkpoint.
	FsyncEvery int
	// SnapshotEvery is the compacting-snapshot cadence in routed arrivals.
	// The default (0) is the live-window capacity — WindowR+WindowS, or
	// 2·MaxLive in ModeShardedTime, one window for a self-join — but at
	// least 65536. Negative disables snapshots, letting segments grow until
	// Close. Each snapshot rewrites the live window and prunes the log
	// segments it obsoletes, bounding recovery time and disk usage; at the
	// default it writes no more tuples than the log records between two.
	SnapshotEvery int
}

// enabled reports whether the configuration turns durability on.
func (d Durability) enabled() bool { return d.Dir != "" }

// validate rejects knobs without a directory and non-sharded modes.
func (d Durability) validate(m Mode) error {
	if !d.enabled() {
		if d.FsyncEvery != 0 || d.SnapshotEvery != 0 {
			return fmt.Errorf("pimtree: Durability.FsyncEvery/SnapshotEvery require Durability.Dir")
		}
		return nil
	}
	if m != ModeSharded && m != ModeShardedTime {
		return fmt.Errorf("pimtree: Durability requires %s or %s mode (got %s)", ModeSharded, ModeShardedTime, m)
	}
	return nil
}

// minSnapshotEvery floors the default snapshot cadence, so that small
// windows are not rewritten every few thousand arrivals.
const minSnapshotEvery = 1 << 16

// snapshotCadence normalizes a validated Config's Durability.SnapshotEvery:
// negative disables, positive is taken as given, and 0 selects the default,
// one snapshot per live-window capacity of arrivals (at least
// minSnapshotEvery). A snapshot then writes no more tuples than the log
// records between two of them, and recovery replays at most about one
// window of log on top of it.
func snapshotCadence(cc Config) int {
	switch n := cc.Durability.SnapshotEvery; {
	case n < 0:
		return 0
	case n > 0:
		return n
	}
	r, s := cc.WindowR, cc.WindowS
	if cc.Mode == ModeShardedTime {
		r, s = cc.MaxLive, cc.MaxLive
	}
	if cc.Self {
		s = 0
	}
	return max(minSnapshotEvery, r+s)
}

// WALStats is a point-in-time snapshot of the durability layer's counters.
// Zero (with Enabled false) when the engine runs without a WAL.
type WALStats struct {
	Enabled         bool   // durability configured for this engine
	AppendedRecords uint64 // records appended across all lanes
	AppendedBytes   uint64 // framed bytes written to segment files
	Fsyncs          uint64 // segment and snapshot fsyncs issued
	Snapshots       uint64 // compacting snapshots written
	SnapshotNanos   uint64 // cumulative wall time writing snapshots
	ReplayRecords   uint64 // records read during recovery at Open
	ReplayNanos     uint64 // wall time of recovery at Open
	Truncations     uint64 // corruption events survived (truncated lanes, rejected snapshots)
	WriteErrors     uint64 // appends, syncs and snapshots abandoned after an error
}

// WALStats returns the durability layer's counters. Safe from any goroutine.
func (e *Engine) WALStats() WALStats {
	if e.wlog == nil {
		return WALStats{}
	}
	s := e.wlog.Stats().Snapshot()
	return WALStats{
		Enabled:         true,
		AppendedRecords: s.AppendedRecords,
		AppendedBytes:   s.AppendedBytes,
		Fsyncs:          s.Fsyncs,
		Snapshots:       s.Snapshots,
		SnapshotNanos:   s.SnapshotNanos,
		ReplayRecords:   s.ReplayRecords,
		ReplayNanos:     s.ReplayNanos,
		Truncations:     s.Truncations,
		WriteErrors:     s.WriteErrors,
	}
}

// walOptions translates a validated Config into the WAL's window-shape
// options (recovery rebuilds eviction frontiers from them).
func walOptions(cc Config, fs wal.FS) wal.Options {
	opts := wal.Options{
		Dir:        cc.Durability.Dir,
		FsyncEvery: cc.Durability.FsyncEvery,
		FS:         fs,
		Self:       cc.Self,
	}
	if cc.Mode == ModeShardedTime {
		opts.Timed = true
		opts.Span = cc.Span
		opts.Slack = cc.Slack
	} else {
		opts.WR = uint64(cc.WindowR)
		ws := cc.WindowS
		if cc.Self {
			ws = cc.WindowR
		}
		opts.WS = uint64(ws)
	}
	return opts
}
