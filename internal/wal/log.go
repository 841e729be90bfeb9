package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"iter"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// snapChunk tuples per kindSnapTuples frame: 4096×21+5 ≈ 86 KiB, comfortably
// under maxFrame.
const snapChunk = 4096

// Log owns one WAL directory: it hands out lanes, writes snapshots, prunes
// obsolete files, and — in Open — recovers the durable prefix left by a
// previous incarnation. Lane appends are lock-free (single-writer per lane);
// the Log's mutex only guards the slow-path bookkeeping (active file set,
// lane/snapshot counters).
type Log struct {
	fs         FS
	dir        string
	fsyncEvery int
	opts       Options
	stats      Stats

	mu       sync.Mutex
	active   map[string]struct{} // segment files currently owned by a live lane
	nextLane int
	nextSnap int64
	lastSnap int64 // id of the newest durable snapshot this process wrote or recovered; -1 if none
}

// Open opens (creating if needed) the WAL directory and recovers the durable
// state of any previous incarnation: the newest valid snapshot plus the
// largest contiguous per-stream sequence prefix readable from the segment
// tails. Corrupt files are truncated or skipped (counted in
// Stats.Truncations), never fatal; the only errors returned are filesystem
// failures on the directory itself.
func Open(opts Options) (*Log, *State, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 64
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", opts.Dir, err)
	}
	g := &Log{
		fs:         opts.FS,
		dir:        opts.Dir,
		fsyncEvery: opts.FsyncEvery,
		opts:       opts,
		active:     make(map[string]struct{}),
		lastSnap:   -1,
	}
	st, err := g.recover()
	if err != nil {
		return nil, nil, err
	}
	return g, st, nil
}

// Stats exposes the log's counters for the metrics plane.
func (g *Log) Stats() *Stats { return &g.stats }

// NewLane allocates a fresh lane with its first segment. Lane IDs are never
// reused across incarnations — a restarted process appends only to files it
// created, so a crash mid-recovery can never corrupt the evidence it is
// recovering from. A lane whose segment cannot be created is returned
// disabled (sticky error, WriteErrors counted) rather than nil: appends
// become no-ops and the engine runs degraded to in-memory.
func (g *Log) NewLane() *Lane {
	g.mu.Lock()
	id := g.nextLane
	g.nextLane++
	g.mu.Unlock()
	l := &Lane{log: g, id: id, buf: make([]byte, 0, 1<<14)}
	f, err := g.create(segName(id, 0))
	if err != nil {
		l.fail(err)
		return l
	}
	l.f = f
	return l
}

// WriteSnapshot writes a compacting snapshot of st's live window (see
// StreamSnapshot).
func (g *Log) WriteSnapshot(st *State) error {
	return g.StreamSnapshot(st, len(st.Tuples), slices.Values(st.Tuples))
}

// StreamSnapshot writes a compacting snapshot via a tmp-file rename, making it
// the new truncation anchor. The header is st's frontier — Heads, WMs, MaxTS
// and Floor; st.Tuples is not read, and neither is st.Timed (the log's own
// mode is authoritative) — and the body is the n tuples yielded by tuples.
// They are encoded into snapChunk-tuple frames, each written as it fills, so
// a snapshot never holds more than one frame in memory whatever the window.
//
// The header announces n before the first tuple is seen. A sequence that
// yields any other number is refused: the tmp file is removed, nothing is
// renamed, and the previous snapshot stays the anchor.
func (g *Log) StreamSnapshot(st *State, n int, tuples iter.Seq[Tuple]) error {
	start := time.Now()
	g.mu.Lock()
	id := g.nextSnap
	g.nextSnap++
	g.mu.Unlock()
	name := snapName(id)
	tmp := filepath.Join(g.dir, name+".tmp")

	err := g.writeSnapshotFile(tmp, st, n, tuples)
	if err == nil {
		err = g.fs.Rename(tmp, filepath.Join(g.dir, name))
	} else {
		// Best effort: recovery and Prune delete stray tmp files too.
		_ = g.fs.Remove(tmp)
	}
	if err != nil {
		g.stats.WriteErrors.Add(1)
		return fmt.Errorf("wal: snapshot %s: %w", name, err)
	}
	g.mu.Lock()
	g.lastSnap = id
	g.mu.Unlock()
	g.stats.Snapshots.Add(1)
	g.stats.SnapshotNanos.Add(uint64(time.Since(start)))
	return nil
}

// writeSnapshotFile creates path, streams the snapshot's frames into it, and
// fsyncs and closes it.
func (g *Log) writeSnapshotFile(path string, st *State, n int, tuples iter.Seq[Tuple]) error {
	f, err := g.fs.Create(path)
	if err != nil {
		return err
	}
	if err := g.encodeSnapshot(f, st, n, tuples); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	g.stats.Fsyncs.Add(1)
	return f.Close()
}

// encodeSnapshot writes the header frame, the tuples in frames of snapChunk
// (the last one shorter), and the footer frame. Each tuple frame goes out in
// one Write as soon as it is sealed; the header rides with the first.
func (g *Log) encodeSnapshot(f File, st *State, n int, tuples iter.Seq[Tuple]) error {
	var flags byte
	if g.opts.Timed {
		flags |= snapFlagTimed
	}
	buf := make([]byte, 0, 3*frameHeader+snapHeaderLen+5+min(n, snapChunk)*tupleWire+snapFooterLen)
	buf = append(buf, headerReserve[:]...)
	hs := len(buf)
	buf = append(buf, kindSnapHeader, flags)
	buf = binary.LittleEndian.AppendUint64(buf, st.Heads[0])
	buf = binary.LittleEndian.AppendUint64(buf, st.Heads[1])
	buf = binary.LittleEndian.AppendUint64(buf, st.WMs[0])
	buf = binary.LittleEndian.AppendUint64(buf, st.WMs[1])
	buf = binary.LittleEndian.AppendUint64(buf, st.MaxTS)
	buf = binary.LittleEndian.AppendUint64(buf, st.Floor)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	sealFrame(buf, hs)

	count, frame := 0, 0 // tuples encoded; payload offset of the open tuple frame
	for t := range tuples {
		if count == n {
			return fmt.Errorf("tuples run past the %d announced", n)
		}
		if count%snapChunk == 0 {
			buf = append(buf, headerReserve[:]...)
			frame = len(buf)
			buf = append(buf, kindSnapTuples, 0, 0, 0, 0) // count patched at seal
		}
		buf = appendTuple(buf, t)
		count++
		if count%snapChunk == 0 || count == n {
			binary.LittleEndian.PutUint32(buf[frame+1:], uint32((count-1)%snapChunk+1))
			sealFrame(buf, frame)
			if _, err := f.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if count != n {
		return fmt.Errorf("%d tuples yielded, %d announced", count, n)
	}
	buf = append(buf, headerReserve[:]...)
	fs := len(buf)
	buf = append(buf, kindSnapFooter)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	sealFrame(buf, fs)
	_, err := f.Write(buf)
	return err
}

// Prune removes files obsoleted by the newest durable snapshot: sealed
// segments no lane owns (everything they recorded is covered by the
// snapshot — the router rotates every lane at the snapshot barrier before
// writing it), older snapshots, and abandoned tmp files. Called after a
// successful WriteSnapshot; failures are ignored (a leftover file merely
// wastes space and is skipped or re-pruned later).
func (g *Log) Prune() {
	g.mu.Lock()
	last := g.lastSnap
	g.mu.Unlock()
	names, err := g.fs.ReadDir(g.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = g.fs.Remove(filepath.Join(g.dir, name))
		case last < 0:
			// No durable snapshot yet: segments are the only evidence.
		case strings.HasPrefix(name, "seg-"):
			g.mu.Lock()
			_, live := g.active[name]
			g.mu.Unlock()
			if !live {
				_ = g.fs.Remove(filepath.Join(g.dir, name))
			}
		case strings.HasPrefix(name, "snap-"):
			var id int64
			if _, err := fmt.Sscanf(name, "snap-%012d.snap", &id); err == nil && id < last {
				_ = g.fs.Remove(filepath.Join(g.dir, name))
			}
		}
	}
}

// create opens a fresh segment file and marks it live.
func (g *Log) create(name string) (File, error) {
	f, err := g.fs.Create(filepath.Join(g.dir, name))
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.active[name] = struct{}{}
	g.mu.Unlock()
	return f, nil
}

// forget releases a sealed segment for pruning.
func (g *Log) forget(name string) {
	g.mu.Lock()
	delete(g.active, name)
	g.mu.Unlock()
}

func segName(lane, seg int) string { return fmt.Sprintf("seg-%06d-%06d.wal", lane, seg) }
func snapName(id int64) string     { return fmt.Sprintf("snap-%012d.snap", id) }

// snapState is a decoded, validated snapshot file.
type snapState struct {
	heads  [2]uint64
	wms    [2]uint64
	maxTS  uint64
	floor  uint64
	tuples []Tuple
}

type streamSeq struct {
	stream uint8
	seq    uint64
}

// recover rebuilds the durable state of the directory. The algorithm:
//
//  1. Newest valid snapshot wins; invalid ones (bad CRC, missing footer,
//     count mismatch, wrong mode) are skipped with a Truncations count,
//     falling back to older snapshots and finally to the empty state.
//  2. Every segment is scanned and truncated at its first invalid frame.
//     Insert records below the snapshot heads are already compacted into the
//     snapshot and skipped; the rest are deduplicated by (stream, seq).
//  3. The recovered heads are the largest per-stream sequences contiguously
//     reachable from the snapshot heads. Records beyond a hole — an unsynced
//     lane lost more than its peers — are discarded: replaying them would
//     fabricate a state no prefix of the input ever produced.
//  4. Watermark records whose heads lie inside the recovered prefix
//     contribute eviction evidence; count-window frontiers also follow
//     directly from the heads, timed frontiers from the eligible max event
//     time and the configured slack and span.
func (g *Log) recover() (*State, error) {
	start := time.Now()
	names, err := g.fs.ReadDir(g.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan %s: %w", g.dir, err)
	}
	var segs []string
	var snapIDs []int64
	maxLane := -1
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, ".tmp"):
			_ = g.fs.Remove(filepath.Join(g.dir, name))
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			var lane, seg int
			if _, err := fmt.Sscanf(name, "seg-%06d-%06d.wal", &lane, &seg); err == nil {
				segs = append(segs, name)
				if lane > maxLane {
					maxLane = lane
				}
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			var id int64
			if _, err := fmt.Sscanf(name, "snap-%012d.snap", &id); err == nil {
				snapIDs = append(snapIDs, id)
			}
		}
	}
	g.nextLane = maxLane + 1
	sort.Slice(snapIDs, func(i, j int) bool { return snapIDs[i] > snapIDs[j] })
	if len(snapIDs) > 0 {
		g.nextSnap = snapIDs[0] + 1
	}

	var snap *snapState
	for _, id := range snapIDs {
		s, ok := g.loadSnapshot(snapName(id))
		if !ok {
			g.stats.Truncations.Add(1)
			continue
		}
		snap = s
		g.lastSnap = id
		break
	}

	var snapHeads [2]uint64
	if snap != nil {
		snapHeads = snap.heads
	}
	inserts := make(map[streamSeq]Tuple)
	var wmarks []watermarkRec
	sort.Strings(segs)
	for _, name := range segs {
		data, err := g.fs.ReadFile(filepath.Join(g.dir, name))
		if err != nil {
			g.stats.Truncations.Add(1)
			continue
		}
		records := uint64(0)
		off := scanFrames(data, func(kind byte, p []byte) bool {
			switch kind {
			case kindInsert:
				records++
				t := decodeTuple(p[1:])
				if t.Seq >= snapHeads[t.Stream] {
					if _, dup := inserts[streamSeq{t.Stream, t.Seq}]; !dup {
						inserts[streamSeq{t.Stream, t.Seq}] = t
					}
				}
			case kindWatermark:
				records++
				wmarks = append(wmarks, watermarkRec{
					heads: [2]uint64{binary.LittleEndian.Uint64(p[1:]), binary.LittleEndian.Uint64(p[9:])},
					maxTS: binary.LittleEndian.Uint64(p[17:]),
					floor: binary.LittleEndian.Uint64(p[25:]),
				})
			default:
				// Snapshot frames inside a segment are structurally valid but
				// semantically foreign: truncate here.
				return false
			}
			return true
		})
		g.stats.ReplayRecords.Add(records)
		if off < len(data) {
			g.stats.Truncations.Add(1)
		}
	}

	heads := snapHeads
	for s := 0; s < 2; s++ {
		for {
			if _, ok := inserts[streamSeq{uint8(s), heads[s]}]; !ok {
				break
			}
			heads[s]++
		}
	}

	var wmMaxTS, wmFloor uint64
	for _, w := range wmarks {
		if w.heads[0] <= heads[0] && w.heads[1] <= heads[1] {
			if w.maxTS > wmMaxTS {
				wmMaxTS = w.maxTS
			}
			if w.floor > wmFloor {
				wmFloor = w.floor
			}
		}
	}

	st := &State{Timed: g.opts.Timed, Heads: heads}
	live := make([]Tuple, 0, len(inserts))
	if snap != nil {
		live = append(live, snap.tuples...)
	}
	for _, t := range inserts {
		if t.Seq < heads[t.Stream] {
			live = append(live, t)
		}
	}

	if !g.opts.Timed {
		wlen := [2]uint64{g.opts.WR, g.opts.WS}
		for s := 0; s < 2; s++ {
			var wm uint64
			if heads[s] > wlen[s] {
				wm = heads[s] - wlen[s]
			}
			if snap != nil && snap.wms[s] > wm {
				wm = snap.wms[s]
			}
			st.WMs[s] = wm
		}
		if g.opts.Self {
			st.WMs[1] = st.WMs[0]
		}
		kept := live[:0]
		for _, t := range live {
			if t.Seq >= st.WMs[g.slot(t.Stream)] {
				kept = append(kept, t)
			}
		}
		st.Tuples = kept
	} else {
		maxTS, floor := wmMaxTS, wmFloor
		if snap != nil {
			if snap.maxTS > maxTS {
				maxTS = snap.maxTS
			}
			if snap.floor > floor {
				floor = snap.floor
			}
		}
		for _, t := range live {
			if t.TS > maxTS {
				maxTS = t.TS
			}
		}
		w := floor
		if maxTS > g.opts.Slack && maxTS-g.opts.Slack > w {
			w = maxTS - g.opts.Slack
		}
		var retain uint64
		if g.opts.Span > 0 && w >= g.opts.Span {
			retain = w - g.opts.Span + 1
		}
		for s := 0; s < 2; s++ {
			wm := retain
			if snap != nil && snap.wms[s] > wm {
				wm = snap.wms[s]
			}
			st.WMs[s] = wm
		}
		if g.opts.Self {
			st.WMs[1] = st.WMs[0]
		}
		st.MaxTS = maxTS
		st.Floor = w
		kept := live[:0]
		for _, t := range live {
			if t.TS >= st.WMs[g.slot(t.Stream)] {
				kept = append(kept, t)
			}
		}
		st.Tuples = kept
	}
	// A snapshot's tuples come in whatever order its writer walked them (a
	// shard's index yields key order), so this is a full sort.
	slices.SortFunc(st.Tuples, func(a, b Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
	g.stats.ReplayNanos.Add(uint64(time.Since(start)))
	return st, nil
}

// slot maps a record's stream to its store slot (self-joins fold onto 0).
func (g *Log) slot(stream uint8) int {
	if g.opts.Self {
		return 0
	}
	return int(stream)
}

// loadSnapshot decodes and validates one snapshot file. Invalid in any way —
// unreadable, bad CRC, missing or duplicate header/footer, tuple-count
// mismatch, trailing garbage, mode mismatch with the current configuration —
// means rejected, and the caller falls back to an older snapshot.
func (g *Log) loadSnapshot(name string) (*snapState, bool) {
	data, err := g.fs.ReadFile(filepath.Join(g.dir, name))
	if err != nil {
		return nil, false
	}
	var s snapState
	var timed, haveHeader, haveFooter, bad bool
	var headerCount, footerCount uint64
	records := uint64(0)
	off := scanFrames(data, func(kind byte, p []byte) bool {
		switch kind {
		case kindSnapHeader:
			if haveHeader {
				bad = true
				return false
			}
			haveHeader = true
			records++
			timed = p[1]&snapFlagTimed != 0
			s.heads[0] = binary.LittleEndian.Uint64(p[2:])
			s.heads[1] = binary.LittleEndian.Uint64(p[10:])
			s.wms[0] = binary.LittleEndian.Uint64(p[18:])
			s.wms[1] = binary.LittleEndian.Uint64(p[26:])
			s.maxTS = binary.LittleEndian.Uint64(p[34:])
			s.floor = binary.LittleEndian.Uint64(p[42:])
			headerCount = binary.LittleEndian.Uint64(p[50:])
		case kindSnapTuples:
			if !haveHeader || haveFooter {
				bad = true
				return false
			}
			records++
			n := int(binary.LittleEndian.Uint32(p[1:]))
			for i := 0; i < n; i++ {
				tu := decodeTuple(p[5+i*tupleWire:])
				// A snapshot's tuples must lie below its own heads — the
				// writer guarantees it, so a violation means corruption.
				if tu.Seq >= s.heads[tu.Stream] {
					bad = true
					return false
				}
				s.tuples = append(s.tuples, tu)
			}
		case kindSnapFooter:
			if !haveHeader || haveFooter {
				bad = true
				return false
			}
			haveFooter = true
			records++
			footerCount = binary.LittleEndian.Uint64(p[1:])
		default:
			bad = true
			return false
		}
		return true
	})
	g.stats.ReplayRecords.Add(records)
	if bad || !haveHeader || !haveFooter || off != len(data) ||
		headerCount != uint64(len(s.tuples)) || footerCount != uint64(len(s.tuples)) ||
		timed != g.opts.Timed {
		return nil, false
	}
	return &s, true
}
