package shard

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// referenceState is what a snapshot epoch must write, built the slow way:
// every stored tuple tested against its slot's frontier one by one, slot by
// slot, shard by shard, in store order. Workers must be quiescent.
func referenceState(r *Router) *wal.State {
	st := &wal.State{Heads: r.heads, WMs: r.frontiers(), MaxTS: r.reorderMaxTS(), Floor: r.reorderFloor()}
	for slot := 0; slot < storeSlots(r.cfg.Self); slot++ {
		for _, e := range r.engines {
			s := e.stores[slot]
			for i := s.tail; i < s.head; i++ {
				key, seq, ts := s.at(i)
				by := seq // the column eviction compares with the frontier
				if s.timed {
					by = ts
				}
				if by < st.WMs[slot] {
					continue
				}
				st.Tuples = append(st.Tuples, wal.Tuple{Stream: uint8(slot), Key: key, Seq: seq, TS: ts})
			}
		}
	}
	return st
}

// newestSnapshot returns the bytes of the single snapshot file left in dir.
func newestSnapshot(t *testing.T, fs *wal.MemFS) []byte {
	t.Helper()
	var snaps []string
	for _, p := range fs.Paths() {
		if strings.HasSuffix(p, ".snap") {
			snaps = append(snaps, p)
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot file after prune, have %v", fs.Paths())
	}
	data, err := fs.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWALSnapshotMatchesReference: a snapshot epoch streams the live window
// straight from the store columns, and the file it writes is byte-identical
// to WriteSnapshot of the reference state — in count, timed and self-join
// shape. Each run ends with arrivals that touch shard 0 only, so shard 1
// still stores tuples the global frontier has passed, which the snapshot
// must leave out.
func TestWALSnapshotMatchesReference(t *testing.T) {
	const w, n = 512, 4000
	// Keys are doubled to span both shards' halves of the key domain.
	band := join.Band{Diff: 2 * stream.UniformDiff(w, 2)}
	cases := []struct {
		name string
		cfg  Config
		opts wal.Options
		run  func(r *Router)
	}{
		{
			name: "count",
			cfg:  Config{WR: w, WS: w / 2},
			opts: wal.Options{WR: w, WS: w / 2},
			run: func(r *Router) {
				for _, a := range stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.5).Take(n) {
					a.Key <<= 1
					r.Push(a)
				}
				for i := 0; i < 32; i++ {
					r.Push(stream.Arrival{Key: 0})
				}
			},
		},
		{
			name: "timed",
			cfg:  Config{Timed: true, Span: w, MaxLive: 4 * w, Slack: 16},
			opts: wal.Options{Timed: true, Span: w, Slack: 16},
			run: func(r *Router) {
				arr := stream.Timestamp(4, stream.NewInterleaver(5, stream.NewUniform(6), stream.NewUniform(7), 0.5).Take(n), 1)
				for _, a := range stream.ShuffleWithinSlack(8, arr, 16) {
					r.PushTimed(uint8(a.Stream), a.Key<<1, a.TS)
				}
				ts := arr[len(arr)-1].TS
				for i := 0; i < 32; i++ {
					ts += w / 64
					r.PushTimed(0, 0, ts)
				}
			},
		},
		{
			name: "self",
			cfg:  Config{WR: w, Self: true},
			opts: wal.Options{WR: w, WS: w, Self: true},
			run: func(r *Router) {
				for _, a := range stream.NewSelfStream(stream.NewUniform(9)).Take(n) {
					a.Key <<= 1
					r.Push(a)
				}
				for i := 0; i < 32; i++ {
					r.Push(stream.Arrival{Key: 0})
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := wal.NewMemFS()
			c.opts.Dir, c.opts.FS = "/wal", fs
			log, _, err := wal.Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg
			cfg.Shards, cfg.BatchSize, cfg.Band, cfg.WAL = 2, 16, band, log
			r := NewRouter(cfg, 0)
			defer r.Close()
			c.run(r)
			r.walSnapshot()
			got := newestSnapshot(t, fs)

			ref := referenceState(r)
			stored := 0
			for slot := 0; slot < storeSlots(r.cfg.Self); slot++ {
				for _, e := range r.engines {
					stored += int(e.stores[slot].head - e.stores[slot].tail)
				}
			}
			if len(ref.Tuples) == 0 || stored == len(ref.Tuples) {
				t.Fatalf("reference holds %d of %d stored tuples: the frontier filter goes unexercised", len(ref.Tuples), stored)
			}
			refFS := wal.NewMemFS()
			c.opts.FS = refFS
			refLog, _, err := wal.Open(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := refLog.WriteSnapshot(ref); err != nil {
				t.Fatal(err)
			}
			if want := newestSnapshot(t, refFS); !bytes.Equal(got, want) {
				t.Fatalf("router snapshot is %d bytes and differs from the reference's %d", len(got), len(want))
			}
		})
	}
}

// TestWALSnapshotAllocation pins the snapshot epoch's memory: with 2^16 live
// tuples over two shards on the operating system's filesystem, one epoch
// allocates under 1 MiB — at most one encoded chunk, nothing per tuple.
func TestWALSnapshotAllocation(t *testing.T) {
	const w = 1 << 15
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), WR: w, WS: w})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(Config{Shards: 2, WR: w, WS: w, Band: join.Band{Diff: 2 * stream.UniformDiff(w, 2)}, WAL: log}, 0)
	defer r.Close()
	for _, a := range stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.5).Take(4 * w) {
		a.Key <<= 1 // over the whole domain, so both shards hold half the window
		r.Push(a)
	}
	r.Drain()
	if n, _ := r.liveWindow(r.frontiers()); n != 2*w {
		t.Fatalf("%d live tuples, want full windows of %d", n, 2*w)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.walSnapshot()
	runtime.ReadMemStats(&after)
	if s := log.Stats().Snapshot(); s.Snapshots != 1 || s.WriteErrors != 0 {
		t.Fatalf("snapshots=%d write errors=%d, want 1 and 0", s.Snapshots, s.WriteErrors)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("one snapshot epoch allocated %d bytes, want < 1 MiB", got)
	}
}
