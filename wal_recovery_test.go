// Crash-injection recovery suite: every test here kills a durable engine at
// a deterministically injected crash point (the Nth written byte or Nth
// fsync of an in-memory filesystem), reboots onto the surviving files, and
// proves the recovered engine EQUIVALENT to an oracle — a fresh engine fed
// exactly the per-stream input prefix the recovery reports as durable. The
// two are then driven with an identical fresh tail and must emit the same
// match multiset; since matches are keyed by per-stream sequence numbers and
// recovery resumes the global numbering, the multisets must agree exactly.
//
// The suite sweeps crash points across every sharded backend in both the
// count- and time-window modes, under both survivor models (unsynced bytes
// lost or kept — the latter is what leaves torn frames), and layers explicit
// corruption on top: bit flips, chopped segment tails, duplicated records,
// and a corrupted snapshot. Recovery must never return an error or panic on
// any of these; it truncates, falls back, and reports via WALStats.
package pimtree

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"pimtree/internal/wal"
)

const crashDir = "/wal"

// recoveryCase is one engine shape swept by the crash tests.
type recoveryCase struct {
	name    string
	backend Backend
	timed   bool
	self    bool
	slack   uint64 // timed only; >0 also selects LateDrop
}

// config builds the oracle (non-durable) configuration; durable adds the WAL.
func (rc recoveryCase) config(rec *matchRecorder) Config {
	cfg := Config{
		Backend:   rc.backend,
		Self:      rc.self,
		Diff:      16,
		Shards:    2,
		BatchSize: 16,
	}
	if rc.timed {
		cfg.Mode = ModeShardedTime
		cfg.Span = 64
		cfg.MaxLive = 4096
		cfg.Slack = rc.slack
		if rc.slack > 0 {
			cfg.LatePolicy = LateDrop
		}
	} else {
		cfg.Mode = ModeSharded
		cfg.WindowR, cfg.WindowS = 32, 32
	}
	if rec != nil {
		cfg.OnMatch = rec.add
	} else {
		cfg.DiscardMatches = true
	}
	return cfg
}

func (rc recoveryCase) durable(fsyncEvery int, rec *matchRecorder) Config {
	cfg := rc.config(rec)
	cfg.Durability = Durability{Dir: crashDir, FsyncEvery: fsyncEvery, SnapshotEvery: 256}
	return cfg
}

// recTuple is one generated arrival. seq is the per-stream arrival index —
// equal to the sequence number the router will assign as long as admission
// order is arrival order (count mode, or timed with sorted input).
type recTuple struct {
	stream uint8
	key    uint32
	ts     uint64
	seq    uint64
}

// genRecInput generates a deterministic workload: pseudo-random stream and
// key, strictly increasing timestamps (gap 1..3, so Span 64 covers roughly
// 32 arrivals).
func genRecInput(rc recoveryCase, n int, seed uint64) []recTuple {
	x := seed
	var cnt [2]uint64
	var ts uint64
	out := make([]recTuple, n)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		s := uint8(x>>17) & 1
		if rc.self {
			s = 0
		}
		ts += 1 + uint64(x>>7)%3
		out[i] = recTuple{stream: s, key: uint32(x>>33) & 4095, ts: ts, seq: cnt[s]}
		cnt[s]++
	}
	return out
}

// matchRecorder collects matches from the engine's OnMatch callback, which
// may run concurrently with the test goroutine between Drain points.
type matchRecorder struct {
	mu sync.Mutex
	ms []Match
}

func (r *matchRecorder) add(m Match) {
	r.mu.Lock()
	r.ms = append(r.ms, m)
	r.mu.Unlock()
}

func (r *matchRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ms)
}

// from returns the matches recorded at index >= base, canonically sorted.
func (r *matchRecorder) from(base int) []Match {
	r.mu.Lock()
	out := append([]Match(nil), r.ms[base:]...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ProbeStream != b.ProbeStream {
			return a.ProbeStream < b.ProbeStream
		}
		if a.ProbeSeq != b.ProbeSeq {
			return a.ProbeSeq < b.ProbeSeq
		}
		return a.MatchSeq < b.MatchSeq
	})
	return out
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pushRec(t *testing.T, e *Engine, rc recoveryCase, in []recTuple) {
	t.Helper()
	for _, tu := range in {
		var err error
		if rc.timed {
			err = e.PushTimed(StreamID(tu.stream), tu.key, tu.ts)
		} else {
			err = e.Push(StreamID(tu.stream), tu.key)
		}
		if err != nil {
			t.Fatalf("push: %v", err)
		}
	}
}

// runToCrash drives a durable engine over fs until the workload ends or the
// armed crash point kills the filesystem underneath it; either way the
// engine itself must keep running (degraded to in-memory) and close cleanly.
func runToCrash(t *testing.T, rc recoveryCase, fsyncEvery int, in []recTuple, fs *wal.MemFS) {
	t.Helper()
	eng, err := openWithWALFS(rc.durable(fsyncEvery, nil), fs)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	pushRec(t, eng, rc, in)
	if _, err := eng.Close(context.Background()); err != nil {
		t.Fatalf("close crashed-run engine: %v", err)
	}
}

// verifyRecovery reboots onto the survivor filesystem and proves oracle
// equivalence: the recovery algorithm names the durable per-stream prefix
// (probed via wal.Open on an identical copy), an oracle engine is fed
// exactly that prefix, and both engines then receive the same fresh tail.
// Their tail-phase match multisets must be identical. Returns the recovered
// heads and the recovered engine's WALStats for test-specific assertions.
func verifyRecovery(t *testing.T, rc recoveryCase, fsyncEvery int, in, tail []recTuple, crashed *wal.MemFS, loseUnsynced bool) ([2]uint64, WALStats) {
	t.Helper()
	ctx := context.Background()
	survivor := crashed.Crash(loseUnsynced)
	probe := crashed.Crash(loseUnsynced)

	// Ask the recovery algorithm what survived. Recovery is a deterministic
	// function of the file contents, so the probe's answer is the engine's.
	pcfg := rc.durable(fsyncEvery, nil)
	_, pst, err := wal.Open(walOptions(pcfg, probe))
	if err != nil {
		t.Fatalf("probe recovery: %v", err)
	}
	var heads [2]uint64
	if pst != nil {
		heads = pst.Heads
	}

	recRec := &matchRecorder{}
	recEng, err := openWithWALFS(rc.durable(fsyncEvery, recRec), survivor)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	ws := recEng.WALStats()
	if !ws.Enabled {
		t.Fatalf("recovered engine reports WALStats.Enabled = false")
	}

	oraRec := &matchRecorder{}
	oracle, err := Open(rc.config(oraRec))
	if err != nil {
		t.Fatalf("open oracle: %v", err)
	}
	eligible := make([]recTuple, 0, len(in))
	for _, tu := range in {
		if tu.seq < heads[tu.stream] {
			eligible = append(eligible, tu)
		}
	}
	pushRec(t, oracle, rc, eligible)
	if err := oracle.Drain(ctx); err != nil {
		t.Fatalf("oracle drain: %v", err)
	}
	base := oraRec.count()

	pushRec(t, recEng, rc, tail)
	pushRec(t, oracle, rc, tail)
	if err := recEng.Drain(ctx); err != nil {
		t.Fatalf("recovered drain: %v", err)
	}
	if err := oracle.Drain(ctx); err != nil {
		t.Fatalf("oracle drain: %v", err)
	}

	got := recRec.from(0) // the recovered engine only ever saw the tail
	want := oraRec.from(base)
	if !matchesEqual(got, want) {
		t.Errorf("recovered engine diverged from oracle after heads=%v (lose=%v): %d tail matches, oracle %d",
			heads, loseUnsynced, len(got), len(want))
	}

	if _, err := recEng.Close(ctx); err != nil {
		t.Errorf("close recovered: %v", err)
	}
	if _, err := oracle.Close(ctx); err != nil {
		t.Errorf("close oracle: %v", err)
	}
	return heads, ws
}

// sweepCases lists the backend × mode grid. The PIM-Tree rows get the dense
// crash-point sweep; the baselines get a sparse one.
func sweepCases() []recoveryCase {
	return []recoveryCase{
		{name: "pim-count", backend: PIMTree},
		{name: "pim-timed", backend: PIMTree, timed: true},
		{name: "im-count", backend: IMTree},
		{name: "im-timed", backend: IMTree, timed: true},
		{name: "btree-count", backend: BPlusTree},
		{name: "btree-timed", backend: BPlusTree, timed: true},
		{name: "pim-self-count", backend: PIMTree, self: true},
	}
}

func TestCrashRecoverySweep(t *testing.T) {
	const n, m = 2048, 256
	for _, rc := range sweepCases() {
		rc := rc
		dense := strings.HasPrefix(rc.name, "pim-") && !rc.self
		t.Run(rc.name, func(t *testing.T) {
			t.Parallel()
			in := genRecInput(rc, n+m, uint64(len(rc.name))*0x9e3779b97f4a7c15+1)
			prefix, tail := in[:n], in[n:]
			fsyncs := []int{8}
			if dense && !testing.Short() {
				fsyncs = []int{8, 1}
			}
			for _, fe := range fsyncs {
				// Dry run sizes the byte- and sync-level sweeps.
				dry := wal.NewMemFS()
				runToCrash(t, rc, fe, prefix, dry)
				total, syncs := dry.TotalBytes(), dry.TotalSyncs()
				if total == 0 || syncs == 0 {
					t.Fatalf("dry run wrote nothing (bytes=%d syncs=%d)", total, syncs)
				}
				pcts := []int64{10, 50, 90}
				if dense && !testing.Short() {
					pcts = []int64{1, 2, 5, 10, 25, 40, 50, 60, 75, 90, 99}
				}
				for _, pct := range pcts {
					fs := wal.NewMemFS()
					fs.CrashAfterBytes(total * pct / 100)
					runToCrash(t, rc, fe, prefix, fs)
					// Both survivor models: cache lost (clean prefix at the
					// last fsync) and cache kept (torn frame at the tear).
					verifyRecovery(t, rc, fe, prefix, tail, fs, true)
					verifyRecovery(t, rc, fe, prefix, tail, fs, false)
				}
				if dense {
					for _, pct := range []int64{25, 75} {
						fs := wal.NewMemFS()
						fs.CrashAfterSyncs(syncs * pct / 100)
						runToCrash(t, rc, fe, prefix, fs)
						verifyRecovery(t, rc, fe, prefix, tail, fs, true)
						verifyRecovery(t, rc, fe, prefix, tail, fs, false)
					}
				}
			}
		})
	}
}

// TestCleanCloseRecovery is the no-crash baseline of the sweep: Close seals
// every lane, so a reboot must recover the full pushed prefix exactly.
func TestCleanCloseRecovery(t *testing.T) {
	const n, m = 1024, 256
	for _, rc := range []recoveryCase{
		{name: "count", backend: PIMTree},
		{name: "timed", backend: PIMTree, timed: true},
		{name: "self", backend: PIMTree, self: true},
	} {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			in := genRecInput(rc, n+m, 7)
			prefix, tail := in[:n], in[n:]
			fs := wal.NewMemFS()
			runToCrash(t, rc, 8, prefix, fs)
			var want [2]uint64
			for _, tu := range prefix {
				want[tu.stream]++
			}
			heads, ws := verifyRecovery(t, rc, 8, prefix, tail, fs, true)
			if heads != want {
				t.Fatalf("clean close recovered heads %v, want %v", heads, want)
			}
			if ws.ReplayRecords == 0 {
				t.Fatalf("clean close recovery replayed no records")
			}
		})
	}
}

// TestCrashRecoveryAcrossReshard crashes an engine whose shard count was
// reconfigured mid-stream: the reshape epoch seals the old lanes and opens
// fresh ones, and recovery must stitch the prefix across both generations.
func TestCrashRecoveryAcrossReshard(t *testing.T) {
	rc := recoveryCase{name: "reshard", backend: PIMTree}
	const n, m = 2048, 256
	in := genRecInput(rc, n+m, 99)
	prefix, tail := in[:n], in[n:]

	run := func(t *testing.T, fs *wal.MemFS) {
		t.Helper()
		eng, err := openWithWALFS(rc.durable(8, nil), fs)
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		pushRec(t, eng, rc, prefix[:n/2])
		if err := eng.Reconfigure(Delta{Shards: 3}); err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
		pushRec(t, eng, rc, prefix[n/2:])
		if _, err := eng.Close(context.Background()); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	dry := wal.NewMemFS()
	run(t, dry)
	total := dry.TotalBytes()
	for _, pct := range []int64{30, 60, 90} {
		fs := wal.NewMemFS()
		fs.CrashAfterBytes(total * pct / 100)
		run(t, fs)
		verifyRecovery(t, rc, 8, prefix, tail, fs, true)
		verifyRecovery(t, rc, 8, prefix, tail, fs, false)
	}
}

// TestRecoveryUnderStripedDefault: a directory written under an explicit
// contiguous RangePartition recovers under the striped default partitioner,
// which owns the same keys differently — recovery routes every tuple through
// the current partitioner — and the second session emits exactly the serial
// join's matches for its probes.
func TestRecoveryUnderStripedDefault(t *testing.T) {
	const (
		w    = 1024
		n    = 4 * w
		diff = 1 << 18 // 16 stripes over 2 shards
	)
	ctx := context.Background()
	// UniformSource keys stay below 2^31: the contiguous split puts them all
	// on shard 0, the striped one on both.
	arr := Interleave(5, UniformSource(6), UniformSource(7), 0.5, n)
	cfg := Config{
		Mode: ModeSharded, Backend: PIMTree, WindowR: w, WindowS: w, Diff: diff,
		Shards: 2, BatchSize: 16,
		Durability: Durability{Dir: crashDir, FsyncEvery: 16, SnapshotEvery: 512},
	}
	full := collectSerial(t, arr, Config{WindowR: w, WindowS: w, Diff: diff, Backend: PIMTree})
	half := n / 2
	var n1 [2]uint64
	for _, a := range arr[:half] {
		n1[a.Stream]++
	}
	var want []Match
	for _, m := range full {
		if m.ProbeSeq >= n1[m.ProbeStream] {
			want = append(want, m)
		}
	}
	if len(want) == 0 {
		t.Fatal("no second-half matches: the workload is broken")
	}

	fs := wal.NewMemFS()
	cfgA := cfg
	cfgA.Partitioner = RangePartition(2)
	cfgA.DiscardMatches = true
	a, err := openWithWALFS(cfgA, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.PushBatch(arr[:half]); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if loads := a.ShardLoads(); loads[1].Resident != 0 {
		t.Fatalf("contiguous split left %d tuples on shard 1", loads[1].Resident)
	}
	if _, err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}

	rec := &matchRecorder{}
	cfgB := cfg
	cfgB.OnMatch = rec.add
	b, err := openWithWALFS(cfgB, fs.Crash(true))
	if err != nil {
		t.Fatal(err)
	}
	if ws := b.WALStats(); ws.ReplayRecords == 0 {
		t.Fatalf("session B recovered nothing: %+v", ws)
	}
	for s, l := range b.ShardLoads() {
		if l.Resident == 0 {
			t.Fatalf("recovery under the striped default left shard %d empty", s)
		}
	}
	if err := b.PushBatch(arr[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rec.from(0); !matchesEqual(got, want) {
		t.Fatalf("session B emitted %d matches, the serial join's second-half probes have %d", len(got), len(want))
	}
}

// TestRecoveryAfterDrainWithSlack covers the out-of-order admission path:
// a bounded-disorder timed stream is pushed, Drain checkpoints it (flushing
// the reorder buffer and fsyncing every lane), and the process dies with all
// unsynced cache lost. Drain's contract makes the full prefix durable, so
// recovery must resume the complete window AND the reorder clock — the
// seeded watermark floor must keep the tail's admission identical to the
// oracle's.
func TestRecoveryAfterDrainWithSlack(t *testing.T) {
	rc := recoveryCase{name: "timed-slack", backend: PIMTree, timed: true, slack: 8}
	const n, m = 1024, 256
	in := genRecInput(rc, n+m, 1234)
	// Bounded shuffle inside the prefix: swapping adjacent arrivals keeps
	// disorder <= 2 gaps (max 6) < slack 8, so nothing is dropped. The seq
	// labels stay usable because verifyRecovery's eligibility filter passes
	// the whole prefix once heads equal the full counts (asserted below).
	x := uint64(5)
	for i := 0; i+1 < n; i += 2 {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>40&1 == 1 {
			in[i], in[i+1] = in[i+1], in[i]
		}
	}
	prefix, tail := in[:n], in[n:]

	fs := wal.NewMemFS()
	eng, err := openWithWALFS(rc.durable(64, nil), fs)
	if err != nil {
		t.Fatalf("open durable: %v", err)
	}
	pushRec(t, eng, rc, prefix)
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Kill the process right after the checkpoint, dropping every byte the
	// OS had not fsynced. Drain's sync must make that loss immaterial.
	crashed := fs.Crash(true)
	if _, err := eng.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}

	var want [2]uint64
	for _, tu := range prefix {
		want[tu.stream]++
	}
	heads, _ := verifyRecovery(t, rc, 64, prefix, tail, crashed, true)
	if heads != want {
		t.Fatalf("post-Drain crash recovered heads %v, want full prefix %v", heads, want)
	}
}

// corruptionRun does a clean durable run and hands the test the live MemFS
// to corrupt in place before verifyRecovery reboots on it.
func corruptionRun(t *testing.T, rc recoveryCase, prefix []recTuple) *wal.MemFS {
	t.Helper()
	fs := wal.NewMemFS()
	runToCrash(t, rc, 8, prefix, fs)
	return fs
}

// pickFile returns the largest stored file with the given suffix (ties by
// name), failing the test when none exists.
func pickFile(t *testing.T, fs *wal.MemFS, suffix string, minSize int) string {
	t.Helper()
	best, bestSize := "", -1
	for _, p := range fs.Paths() {
		if !strings.HasSuffix(p, suffix) {
			continue
		}
		if sz := fs.Size(p); sz >= minSize && sz > bestSize {
			best, bestSize = p, sz
		}
	}
	if best == "" {
		t.Fatalf("no %q file of at least %d bytes (have %v)", suffix, minSize, fs.Paths())
	}
	return best
}

func TestRecoveryBitFlipInSegment(t *testing.T) {
	for _, rc := range []recoveryCase{
		{name: "count", backend: PIMTree},
		{name: "timed", backend: PIMTree, timed: true},
	} {
		rc := rc
		t.Run(rc.name, func(t *testing.T) {
			in := genRecInput(rc, 1100+256, 21)
			prefix, tail := in[:1100], in[1100:]
			fs := corruptionRun(t, rc, prefix)
			seg := pickFile(t, fs, ".wal", 64)
			if !fs.FlipBit(seg, fs.Size(seg)/2*8+3) {
				t.Fatalf("flip failed on %s", seg)
			}
			_, ws := verifyRecovery(t, rc, 8, prefix, tail, fs, true)
			if ws.Truncations == 0 {
				t.Errorf("bit flip in %s survived recovery without a truncation", seg)
			}
		})
	}
}

func TestRecoveryChoppedSegmentTail(t *testing.T) {
	rc := recoveryCase{name: "chop", backend: PIMTree}
	in := genRecInput(rc, 1100+256, 33)
	prefix, tail := in[:1100], in[1100:]
	fs := corruptionRun(t, rc, prefix)
	seg := pickFile(t, fs, ".wal", 64)
	data, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(seg) // Create truncates: rewrite 5 bytes short
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	_, ws := verifyRecovery(t, rc, 8, prefix, tail, fs, true)
	if ws.Truncations == 0 {
		t.Errorf("chopped tail of %s survived recovery without a truncation", seg)
	}
}

// TestRecoveryDuplicatedSegment doubles a whole segment in place; replay
// dedups by (stream, seq) first-wins, so the recovered prefix must be
// byte-for-byte what the un-duplicated log would have yielded.
func TestRecoveryDuplicatedSegment(t *testing.T) {
	rc := recoveryCase{name: "dup", backend: PIMTree}
	in := genRecInput(rc, 1100+256, 44)
	prefix, tail := in[:1100], in[1100:]

	fs := corruptionRun(t, rc, prefix)
	baseHeads, _ := verifyRecovery(t, rc, 8, prefix, tail, fs.Crash(true), true)

	seg := pickFile(t, fs, ".wal", 64)
	data, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(append([]byte(nil), data...), data...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	heads, _ := verifyRecovery(t, rc, 8, prefix, tail, fs, true)
	if heads != baseHeads {
		t.Errorf("duplicated %s changed recovered heads: %v, want %v", seg, heads, baseHeads)
	}
}

// TestRecoveryCorruptSnapshot flips a bit in the newest snapshot. The prune
// policy keeps only that snapshot, so recovery must reject it and degrade to
// whatever the remaining segments prove — possibly nothing — without error.
func TestRecoveryCorruptSnapshot(t *testing.T) {
	rc := recoveryCase{name: "snap", backend: PIMTree}
	in := genRecInput(rc, 1024+256, 55)
	prefix, tail := in[:1024], in[1024:]
	fs := corruptionRun(t, rc, prefix)
	snap := pickFile(t, fs, ".snap", 32)
	if !fs.FlipBit(snap, fs.Size(snap)/2*8) {
		t.Fatalf("flip failed on %s", snap)
	}
	_, ws := verifyRecovery(t, rc, 8, prefix, tail, fs, true)
	if ws.Truncations == 0 {
		t.Errorf("corrupt snapshot %s accepted by recovery", snap)
	}
}
