package shard

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pimtree/internal/join"
)

// memberOracle generates a frontend-style pre-sequenced op stream (the exact
// sequencing contract internal/cluster ships over the wire) and computes each
// probe's expected match set by brute force over the serial window.
type memberOracle struct {
	band  join.Band
	wlen  [2]uint64
	self  bool
	timed bool
	span  uint64

	heads [2]uint64
	keys  [2][]uint32 // key per global sequence
	tss   [2][]uint64 // timestamp per global sequence (timed)

	ops      []Op
	expected map[uint64][]uint64 // probe idx -> sorted matched seqs
	nextIdx  uint64
}

func newMemberOracle(band join.Band, wr, ws int, self, timed bool, span uint64) *memberOracle {
	o := &memberOracle{
		band: band, wlen: [2]uint64{uint64(wr), uint64(ws)},
		self: self, timed: timed, span: span,
		expected: make(map[uint64][]uint64),
	}
	if self {
		o.wlen[1] = o.wlen[0]
	}
	return o
}

// sid folds the stream id exactly as the member does for self-joins.
func (o *memberOracle) sid(s uint8) uint8 {
	if o.self {
		return 0
	}
	return s
}

// push sequences one arrival into a probe op and an insert op, recording the
// brute-force expectation for the probe.
func (o *memberOracle) push(s uint8, key uint32, ts uint64) {
	own, opp := s, 1-s
	if o.self {
		opp = s
	}
	lo, hi := o.band.Range(key)
	tl := o.heads[o.sid(opp)]
	var te uint64
	if o.timed {
		if ts >= o.span {
			te = ts - o.span + 1
		}
	} else if tl > o.wlen[o.sid(opp)] {
		te = tl - o.wlen[o.sid(opp)]
	}
	idx := o.nextIdx
	o.nextIdx++
	o.ops = append(o.ops, Op{Stream: o.sid(opp), Lo: lo, Hi: hi, TE: te, TL: tl, Idx: idx})

	var want []uint64
	ok, ot := o.keys[o.sid(opp)], o.tss[o.sid(opp)]
	for seq := uint64(0); seq < tl; seq++ {
		if ok[seq] < lo || ok[seq] > hi {
			continue
		}
		if o.timed {
			if ot[seq] < te {
				continue
			}
		} else if seq < te {
			continue
		}
		want = append(want, seq)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	o.expected[idx] = want

	seq := o.heads[o.sid(own)]
	o.heads[o.sid(own)]++
	var wm uint64
	if o.timed {
		wm = te
	} else if seq+1 > o.wlen[o.sid(own)] {
		wm = seq + 1 - o.wlen[o.sid(own)]
	}
	o.ops = append(o.ops, Op{Insert: true, Stream: o.sid(own), Key: key, Seq: seq, TE: wm, TS: ts})
	o.keys[o.sid(own)] = append(o.keys[o.sid(own)], key)
	o.tss[o.sid(own)] = append(o.tss[o.sid(own)], ts)
}

// resultSink collects member probe results thread-safely, copying the
// recycled bucket storage before it is reused.
type resultSink struct {
	mu  sync.Mutex
	got map[uint64][]uint64
}

func newResultSink() *resultSink { return &resultSink{got: make(map[uint64][]uint64)} }

func (r *resultSink) onResult(idx uint64, buckets [][]uint64) {
	var seqs []uint64
	for _, b := range buckets {
		seqs = append(seqs, b...)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	r.mu.Lock()
	if _, dup := r.got[idx]; dup {
		r.mu.Unlock()
		panic("duplicate probe result idx")
	}
	r.got[idx] = seqs
	r.mu.Unlock()
}

func (r *resultSink) compare(t *testing.T, expected map[uint64][]uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.got) != len(expected) {
		t.Fatalf("got %d probe results, want %d", len(r.got), len(expected))
	}
	for idx, want := range expected {
		got := r.got[idx]
		if len(got) != len(want) {
			t.Fatalf("probe %d: got %v, want %v", idx, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("probe %d: got %v, want %v", idx, got, want)
			}
		}
	}
}

// applyAll ships the oracle's op stream to the member in uneven batch sizes
// (mimicking Ops frames of varying length) and quiesces.
func applyAll(m *Member, ops []Op, rng *rand.Rand) {
	for len(ops) > 0 {
		n := 1 + rng.Intn(9)
		if n > len(ops) {
			n = len(ops)
		}
		m.Apply(ops[:n])
		ops = ops[n:]
	}
	m.quiesce()
}

// TestMemberCountOracle pins the member runtime against the brute-force
// oracle across shard counts, asymmetric windows, self-joins, and tiny-window
// edge cases, in count mode.
func TestMemberCountOracle(t *testing.T) {
	cases := []struct {
		name   string
		cfg    MemberConfig
		diff   uint32
		tuples int
	}{
		{"4shards-asym", MemberConfig{Shards: 4, WR: 64, WS: 48, Index: join.IndexBTree, BatchSize: 7, Capacity: 128}, 1 << 29, 2000},
		{"1shard", MemberConfig{Shards: 1, WR: 32, WS: 32, Index: join.IndexBTree}, 1 << 28, 1000},
		{"5shards-self", MemberConfig{Shards: 5, WR: 50, Self: true, Index: join.IndexBTree, BatchSize: 3}, 1 << 29, 1500},
		{"tiny-windows", MemberConfig{Shards: 2, WR: 1, WS: 7, Index: join.IndexBTree, Capacity: 8}, 1 << 30, 600},
		{"pimtree-backend", MemberConfig{Shards: 3, WR: 64, WS: 64, Index: join.IndexPIMTree}, 1 << 29, 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			orc := newMemberOracle(join.Band{Diff: tc.diff}, tc.cfg.WR, tc.cfg.WS, tc.cfg.Self, false, 0)
			for i := 0; i < tc.tuples; i++ {
				s := uint8(rng.Intn(2))
				if tc.cfg.Self {
					s = 0
				}
				orc.push(s, rng.Uint32(), 0)
			}
			sink := newResultSink()
			m := NewMember(tc.cfg, sink.onResult)
			applyAll(m, orc.ops, rng)
			m.Close()
			sink.compare(t, orc.expected)
			if got := m.Applied(); got != uint64(len(orc.ops)) {
				t.Fatalf("Applied() = %d, want %d", got, len(orc.ops))
			}
		})
	}
}

// TestMemberTimedOracle pins timed-mode semantics: probes filter on seq < TL
// and ts >= TE, inserts evict by minimum live event time.
func TestMemberTimedOracle(t *testing.T) {
	const span, maxLive = uint64(200), 128
	rng := rand.New(rand.NewSource(7))
	orc := newMemberOracle(join.Band{Diff: 1 << 29}, 0, 0, false, true, span)
	ts := uint64(0)
	for i := 0; i < 2000; i++ {
		ts += uint64(rng.Intn(4)) + 1
		orc.push(uint8(rng.Intn(2)), rng.Uint32(), ts)
	}
	sink := newResultSink()
	m := NewMember(MemberConfig{
		Shards: 3, Timed: true, MaxLive: maxLive, Index: join.IndexBTree, BatchSize: 5,
	}, sink.onResult)
	applyAll(m, orc.ops, rng)
	m.Close()
	sink.compare(t, orc.expected)
	if m.EvictWM() == 0 {
		t.Fatal("EvictWM never advanced")
	}
}

// TestMemberExportImportRoundTrip pins both legs of Reassign: a member told
// it keeps the first of 4 positions hands back exactly the other positions'
// key range (no double-reporting from stale copies), a Reassign with imports
// merges the tuples back restoring the monotone-seq store invariant, and the
// continued op stream still matches the oracle exactly.
func TestMemberExportImportRoundTrip(t *testing.T) {
	const wr, ws = 96, 96
	rng := rand.New(rand.NewSource(99))
	orc := newMemberOracle(join.Band{Diff: 1 << 29}, wr, ws, false, false, 0)
	for i := 0; i < 1200; i++ {
		orc.push(uint8(rng.Intn(2)), rng.Uint32(), 0)
	}
	firstOps := len(orc.ops)
	headsAtCut := orc.heads
	for i := 0; i < 1200; i++ {
		orc.push(uint8(rng.Intn(2)), rng.Uint32(), 0)
	}

	sink := newResultSink()
	m := NewMember(MemberConfig{Shards: 4, WR: wr, WS: ws, Index: join.IndexBTree}, sink.onResult)
	applyAll(m, orc.ops[:firstOps], rng)

	before := m.Resident()
	const cutLo, cutHi = uint32(1 << 30), ^uint32(0)
	out := m.Reassign(0, 4, nil)
	for _, wt := range out {
		if wt.Key < cutLo || wt.Key > cutHi {
			t.Fatalf("exported key %#x outside [%#x, %#x]", wt.Key, cutLo, cutHi)
		}
	}
	if m.Resident()+len(out) != before {
		t.Fatalf("resident %d + exported %d != before %d", m.Resident(), len(out), before)
	}
	// The export must contain every tuple the oracle still considers live in
	// the range, and no other: quiesce evicted every store to the member's
	// frontier (here every op went to this member, so it is the oracle's),
	// and the export runs at that frontier.
	got := make(map[[2]uint64]bool, len(out))
	for _, wt := range out {
		got[[2]uint64{uint64(wt.Stream), wt.Seq}] = true
	}
	wantLive := 0
	for s := 0; s < 2; s++ {
		tl := headsAtCut[s]
		var te uint64
		if tl > orc.wlen[s] {
			te = tl - orc.wlen[s]
		}
		for seq := te; seq < tl; seq++ {
			if k := orc.keys[s][seq]; k >= cutLo && k <= cutHi {
				wantLive++
				if !got[[2]uint64{uint64(s), seq}] {
					t.Fatalf("live tuple stream=%d seq=%d key=%#x missing from export", s, seq, k)
				}
			}
		}
	}
	if len(out) < wantLive {
		t.Fatalf("exported %d tuples, oracle has %d live in range", len(out), wantLive)
	}

	// Round-trip: import the same tuples back under a one-node map, then
	// continue the stream. The merged stores must behave exactly as if the
	// handoff never happened.
	if back := m.Reassign(0, 1, out); len(back) != 0 {
		t.Fatalf("sole node handed back %d tuples", len(back))
	}
	if m.Resident() != before {
		t.Fatalf("resident %d after re-import, want %d", m.Resident(), before)
	}
	applyAll(m, orc.ops[firstOps:], rng)
	m.Close()
	sink.compare(t, orc.expected)
}

// TestMemberExportWithoutImportDrops pins the removal half alone: after a
// Reassign to a position past the map (a leaving node), probes must no longer
// see the departed tuples.
func TestMemberExportWithoutImportDrops(t *testing.T) {
	const w = 64
	rng := rand.New(rand.NewSource(5))
	band := join.Band{Diff: 1 << 30}
	orc := newMemberOracle(band, w, w, false, false, 0)
	for i := 0; i < 600; i++ {
		orc.push(uint8(rng.Intn(2)), rng.Uint32(), 0)
	}
	sink := newResultSink()
	m := NewMember(MemberConfig{Shards: 2, WR: w, WS: w, Index: join.IndexBTree}, sink.onResult)
	applyAll(m, orc.ops, rng)

	out := m.Reassign(1, 1, nil)
	if m.Resident() != 0 {
		t.Fatalf("resident %d after full-domain export", m.Resident())
	}
	if len(out) == 0 {
		t.Fatal("full-domain export returned nothing")
	}

	// A full-domain probe of either stream must now return zero matches.
	probeIdx := orc.nextIdx
	m.Apply([]Op{
		{Stream: 0, Lo: 0, Hi: ^uint32(0), TE: 0, TL: orc.heads[0], Idx: probeIdx},
		{Stream: 1, Lo: 0, Hi: ^uint32(0), TE: 0, TL: orc.heads[1], Idx: probeIdx + 1},
	})
	m.Close()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, idx := range []uint64{probeIdx, probeIdx + 1} {
		if seqs, ok := sink.got[idx]; !ok {
			t.Fatalf("post-export probe %d never answered", idx)
		} else if len(seqs) != 0 {
			t.Fatalf("post-export probe %d matched %v, want none", idx, seqs)
		}
	}
}

// TestMemberExportSkipsExpired pins the handoff frontier. A sub-shard that
// saw no op since its tuples left the window still holds them, under a
// watermark that lags. Reassign must filter at the member's frontier, the
// highest watermark any sub-shard applied, and hand off none of them.
func TestMemberExportSkipsExpired(t *testing.T) {
	const w, n = 4, 100
	m := NewMember(MemberConfig{Shards: 2, WR: w, WS: w, Index: join.IndexBTree}, newResultSink().onResult)
	defer m.Close()
	var ops []Op
	for seq := uint64(0); seq < n; seq++ {
		key := uint32(1) // sub-shard 0
		if seq < w {
			key = ^uint32(0) // sub-shard 1, which then goes cold
		}
		var te uint64
		if seq+1 > w {
			te = seq + 1 - w
		}
		ops = append(ops, Op{Insert: true, Key: key, Seq: seq, TE: te})
	}
	m.Apply(ops)
	if out := m.Reassign(0, 2, nil); len(out) != 0 { // hands off [2^31, 2^32)
		t.Fatalf("exported %d tuples that expired at the frontier %d: %+v", len(out), n-w, out)
	}
	if got := m.Resident(); got != w {
		t.Fatalf("resident %d after the export, want the %d live tuples", got, w)
	}
	if out := m.Reassign(2, 2, nil); len(out) != w || out[0].Seq != n-w {
		t.Fatalf("export of the live half returned %+v, want seqs %d..%d", out, n-w, n-1)
	}
}

// TestMemberReassignKeepsUntouchedSlots: a Reassign rebuilds only the slots
// that an export leaves or an import reaches. A 2-sub-shard member told it
// keeps the upper half of the key domain hands back all of sub-shard 0, and
// taking that back reaches sub-shard 0 only. Sub-shard 1 keeps its indexes
// and its merge totals through both, and the continued stream still matches
// the oracle.
func TestMemberReassignKeepsUntouchedSlots(t *testing.T) {
	const w = 192
	rng := rand.New(rand.NewSource(5))
	orc := newMemberOracle(join.Band{Diff: 1 << 26}, w, w, false, false, 0)
	for i := 0; i < 6000; i++ {
		orc.push(uint8(rng.Intn(2)), rng.Uint32(), 0)
	}
	cut := len(orc.ops) / 2
	sink := newResultSink()
	m := NewMember(MemberConfig{Shards: 2, WR: w, WS: w, Index: join.IndexPIMTree}, sink.onResult)
	applyAll(m, orc.ops[:cut], rng)

	e0, e1 := m.engines[0], m.engines[1]
	idxs0, idxs1 := e0.idxs, e1.idxs
	n1, d1 := e1.merges()
	if n1 == 0 {
		t.Fatal("no merge ran in sub-shard 1: its totals prove nothing")
	}
	untouched := func(what string) {
		t.Helper()
		if e1.idxs != idxs1 {
			t.Fatalf("%s: sub-shard 1 was reloaded", what)
		}
		if n, d := e1.merges(); n != n1 || d != d1 {
			t.Fatalf("%s: sub-shard 1's merge total %d (%v) became %d (%v)", what, n1, d1, n, d)
		}
	}

	before := m.Resident()
	out := m.Reassign(1, 2, nil)
	if len(out) == 0 || m.Resident()+len(out) != before {
		t.Fatalf("exported %d of %d resident, %d left", len(out), before, m.Resident())
	}
	for _, wt := range out {
		if wt.Key >= 1<<31 {
			t.Fatalf("exported key %#x from the kept half", wt.Key)
		}
	}
	if e0.idxs[0] == idxs0[0] || e0.idxs[1] == idxs0[1] {
		t.Fatal("sub-shard 0 handed its tuples back but kept an index")
	}
	untouched("Reassign(1, 2, nil)")

	if back := m.Reassign(0, 1, out); len(back) != 0 {
		t.Fatalf("sole node handed back %d tuples", len(back))
	}
	if m.Resident() != before {
		t.Fatalf("resident %d after re-import, want %d", m.Resident(), before)
	}
	untouched("Reassign(0, 1, out)")

	applyAll(m, orc.ops[cut:], rng)
	m.Close()
	sink.compare(t, orc.expected)
}
