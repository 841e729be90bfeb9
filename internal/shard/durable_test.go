package shard

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// referenceState is what a snapshot epoch must write, built the slow way:
// every stored tuple tested against its slot's frontier one by one, slot by
// slot, shard by shard, in store order. A keyless store's key is looked up
// by ref among every entry of the slot's index, stale ones included: no two
// entries of an index share a ref. Workers must be quiescent.
func referenceState(t *testing.T, r *Router) *wal.State {
	t.Helper()
	st := &wal.State{Heads: r.heads, WMs: r.frontiers(), MaxTS: r.reorderMaxTS(), Floor: r.reorderFloor()}
	for slot := 0; slot < storeSlots(r.cfg.Self); slot++ {
		for _, e := range r.engines {
			s, keys := e.stores[slot], map[uint32]uint32{}
			e.idxs[slot].QueryPairs(0, math.MaxUint32, func(ps []kv.Pair) bool {
				for _, p := range ps {
					keys[p.Ref] = p.Key
				}
				return true
			})
			for c := s.begin(); c.pos < s.head; s.next(&c) {
				key, ts := s.at(c.pos)
				seq := c.seq
				if !s.keyed {
					k, ok := keys[uint32(seq)]
					if !ok {
						t.Fatalf("slot %d: resident seq %d has no index entry", slot, seq)
					}
					key = k
				}
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

// snapshotContent reads a snapshot file back the way recovery does, alone in
// a fresh directory of a log opened with opts, with its tuples sorted by
// stream and sequence: a snapshot's tuple order is not part of its contract.
func snapshotContent(t *testing.T, opts wal.Options, data []byte) *wal.State {
	t.Helper()
	fs := wal.NewMemFS()
	opts.Dir, opts.FS = "/wal", fs
	if err := fs.MkdirAll(opts.Dir); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(opts.Dir + "/snap-000000000001.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_, st, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(st.Tuples, func(a, b wal.Tuple) int {
		return cmp.Or(cmp.Compare(a.Stream, b.Stream), cmp.Compare(a.Seq, b.Seq))
	})
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
// straight from each slot's extract (see engine.live), and the file it
// writes holds what WriteSnapshot of the reference state holds — the same
// size, and the same state when each is read back alone, tuples compared
// as a sorted multiset — in count, timed and self-join shape. Each run ends
// with arrivals that touch shard 0 only, so shard 1 still stores tuples the
// global frontier has passed, which the snapshot must leave out.
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
			cfg:  Config{WR: w, WS: w / 2, Index: join.IndexPIMTree},
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
			cfg:  Config{WR: w, Self: true, Index: join.IndexPIMTree},
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

			ref := referenceState(t, r)
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
			want := newestSnapshot(t, refFS)
			if len(got) != len(want) {
				t.Fatalf("router snapshot is %d bytes, the reference's %d", len(got), len(want))
			}
			gotSt, wantSt := snapshotContent(t, c.opts, got), snapshotContent(t, c.opts, want)
			if wantSt.Heads != ref.Heads || len(wantSt.Tuples) != len(ref.Tuples) {
				t.Fatalf("the reference snapshot reads back heads %v and %d tuples, want %v and %d",
					wantSt.Heads, len(wantSt.Tuples), ref.Heads, len(ref.Tuples))
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("router snapshot reads back as heads %v, wms %v and %d tuples, differing from the reference's %v, %v and %d",
					gotSt.Heads, gotSt.WMs, len(gotSt.Tuples), wantSt.Heads, wantSt.WMs, len(wantSt.Tuples))
			}
		})
	}
}

// TestWALSnapshotAllocation pins the snapshot epoch's memory: with 2^16 live
// tuples over two shards on the operating system's filesystem, one epoch
// allocates under 1 MiB — at most one encoded chunk, nothing per tuple —
// whether it reads keyed stores (B+-Tree) or keyless stores' indexes
// (PIM-Tree).
func TestWALSnapshotAllocation(t *testing.T) {
	const w = 1 << 15
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexPIMTree} {
		log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), WR: w, WS: w})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(Config{Shards: 2, WR: w, WS: w, Band: join.Band{Diff: 2 * stream.UniformDiff(w, 2)}, Index: kind, WAL: log}, 0)
		for _, a := range stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.5).Take(4 * w) {
			a.Key <<= 1 // over the whole domain, so both shards hold half the window
			r.Push(a)
		}
		r.Drain()
		if n, _ := r.liveWindow(r.frontiers()); n != 2*w {
			t.Fatalf("%v: %d live tuples, want full windows of %d", kind, n, 2*w)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.walSnapshot()
		runtime.ReadMemStats(&after)
		r.Close()
		if s := log.Stats().Snapshot(); s.Snapshots != 1 || s.WriteErrors != 0 {
			t.Fatalf("%v: snapshots=%d write errors=%d, want 1 and 0", kind, s.Snapshots, s.WriteErrors)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%v: one snapshot epoch allocated %d bytes, want < 1 MiB", kind, got)
		}
	}
}
