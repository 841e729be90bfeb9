package wal

import (
	"bytes"
	"encoding/binary"
	"iter"
	"slices"
	"strings"
	"testing"
)

// wholeSnapshot is the reference snapshot encoding: the entire file built in
// one buffer, header, snapChunk-tuple frames and footer. The streaming writer
// must reproduce it byte for byte, so that snapshots written before and after
// it read the same.
func wholeSnapshot(st *State, timed bool) []byte {
	var buf []byte
	frame := func(payload []byte) {
		start := len(buf) + frameHeader
		buf = append(append(buf, headerReserve[:]...), payload...)
		sealFrame(buf, start)
	}
	var flags byte
	if timed {
		flags = snapFlagTimed
	}
	h := []byte{kindSnapHeader, flags}
	for _, v := range []uint64{st.Heads[0], st.Heads[1], st.WMs[0], st.WMs[1], st.MaxTS, st.Floor, uint64(len(st.Tuples))} {
		h = binary.LittleEndian.AppendUint64(h, v)
	}
	frame(h)
	for i := 0; i < len(st.Tuples); i += snapChunk {
		chunk := st.Tuples[i:min(i+snapChunk, len(st.Tuples))]
		p := binary.LittleEndian.AppendUint32([]byte{kindSnapTuples}, uint32(len(chunk)))
		for _, t := range chunk {
			p = appendTuple(p, t)
		}
		frame(p)
	}
	frame(binary.LittleEndian.AppendUint64([]byte{kindSnapFooter}, uint64(len(st.Tuples))))
	return buf
}

// testState builds a valid state of n tuples: both streams (slot 0 only for a
// self-join), sequences below the heads, timestamps when timed.
func testState(n int, opts Options) *State {
	st := &State{MaxTS: 11, Floor: 7}
	for i := 0; i < n; i++ {
		s := uint8(i & 1)
		if opts.Self {
			s = 0
		}
		t := Tuple{Stream: s, Key: uint32(i * 2654435761), Seq: st.Heads[s]}
		if opts.Timed {
			t.TS = uint64(100 + i)
		}
		st.Heads[s]++
		st.Tuples = append(st.Tuples, t)
	}
	return st
}

// onlySnapshot returns the bytes of the single snap-*.snap file in fs.
func onlySnapshot(t *testing.T, fs *MemFS) []byte {
	t.Helper()
	var snaps []string
	for _, p := range fs.Paths() {
		if strings.HasSuffix(p, ".snap") {
			snaps = append(snaps, p)
		}
	}
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot file, have %v", fs.Paths())
	}
	data, err := fs.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotStreamMatchesWholeBuffer pins the on-disk format: WriteSnapshot
// and StreamSnapshot fed by a plain iterator both write exactly the
// reference encoding, at every chunk boundary and in every window shape, and
// recovery reads the tuples back.
func TestSnapshotStreamMatchesWholeBuffer(t *testing.T) {
	shapes := []struct {
		name string
		opts Options
	}{
		{"count", Options{WR: 1 << 20, WS: 1 << 20}},
		{"timed", Options{Timed: true, Span: 1 << 40}},
		{"self", Options{Self: true, WR: 1 << 20, WS: 1 << 20}},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, snapChunk, snapChunk + 1} {
			st := testState(n, sh.opts)
			want := wholeSnapshot(st, sh.opts.Timed)

			whole := NewMemFS()
			g, _ := openLog(t, whole, sh.opts)
			if err := g.WriteSnapshot(st); err != nil {
				t.Fatalf("%s/%d: WriteSnapshot: %v", sh.name, n, err)
			}
			if got := onlySnapshot(t, whole); !bytes.Equal(got, want) {
				t.Fatalf("%s/%d: WriteSnapshot wrote %d bytes unlike the reference's %d", sh.name, n, len(got), len(want))
			}

			streamed := NewMemFS()
			g, _ = openLog(t, streamed, sh.opts)
			seq := func(yield func(Tuple) bool) {
				for _, tu := range st.Tuples {
					if !yield(tu) {
						return
					}
				}
			}
			if err := g.StreamSnapshot(&State{Heads: st.Heads, WMs: st.WMs, MaxTS: st.MaxTS, Floor: st.Floor}, n, seq); err != nil {
				t.Fatalf("%s/%d: StreamSnapshot: %v", sh.name, n, err)
			}
			if got := onlySnapshot(t, streamed); !bytes.Equal(got, want) {
				t.Fatalf("%s/%d: StreamSnapshot wrote %d bytes unlike the reference's %d", sh.name, n, len(got), len(want))
			}

			_, rec := openLog(t, streamed, sh.opts)
			if rec.Heads != st.Heads || len(rec.Tuples) != n {
				t.Fatalf("%s/%d: recovered heads %v with %d tuples, want %v with %d", sh.name, n, rec.Heads, len(rec.Tuples), st.Heads, n)
			}
		}
	}
}

// TestSnapshotCountMismatchRefused: a writer whose tuples disagree with the
// count its header announced — short by a whole chunk's worth after one frame
// is already on disk, or long by one — gets an error, leaves no snapshot or
// tmp file behind, and the older snapshot stays the recovery anchor even
// through a Prune.
func TestSnapshotCountMismatchRefused(t *testing.T) {
	opts := countOpts(1<<20, 1<<20, 1)
	fs := NewMemFS()
	g, _ := openLog(t, fs, opts)
	older := testState(3, opts)
	if err := g.WriteSnapshot(older); err != nil {
		t.Fatal(err)
	}
	anchor := onlySnapshot(t, fs)

	full := testState(snapChunk+1, opts)
	hdr := &State{Heads: full.Heads}
	for _, c := range []struct {
		name   string
		n      int
		tuples iter.Seq[Tuple]
	}{
		{"short", snapChunk + 1, slices.Values(full.Tuples[:snapChunk])},
		{"long", 1, slices.Values(full.Tuples[:2])},
	} {
		if err := g.StreamSnapshot(hdr, c.n, c.tuples); err == nil {
			t.Fatalf("%s: a count mismatch was written without error", c.name)
		}
		g.Prune()
		for _, p := range fs.Paths() {
			if strings.HasSuffix(p, ".tmp") {
				t.Fatalf("%s: refused snapshot left %s", c.name, p)
			}
		}
		if got := onlySnapshot(t, fs); !bytes.Equal(got, anchor) {
			t.Fatalf("%s: the older snapshot changed", c.name)
		}
	}
	s := g.Stats().Snapshot()
	if s.Snapshots != 1 || s.WriteErrors != 2 {
		t.Fatalf("snapshots=%d write errors=%d, want 1 and 2", s.Snapshots, s.WriteErrors)
	}
	_, st := openLog(t, fs, opts)
	if st.Heads != older.Heads || len(st.Tuples) != len(older.Tuples) {
		t.Fatalf("recovered heads %v with %d tuples, want the older snapshot's %v with %d",
			st.Heads, len(st.Tuples), older.Heads, len(older.Tuples))
	}
}
