package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pimtree/internal/cstree"
	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// An index entry's ref is the low 32 bits of its tuple's sequence, and a
// probe decides liveness — and recovers the matched sequence — from the ref
// and its own [te, tl) alone. These tests pin that arithmetic against a model
// that keeps every stored tuple as a plain (key, seq, ts) record and answers
// each probe by scanning the records, on sequences that start just below
// 2^32 so the refs wrap mid-run.

var allIndexKinds = []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree}

type storedTuple struct {
	key     uint32
	seq, ts uint64
}

// livenessModel sequences arrivals with the real Sequencer (pinned on its own
// by TestSequencerMatchesOracle) from chosen starting heads, and remembers
// what each slot was given.
type livenessModel struct {
	Sequencer
	rng    *rand.Rand
	ts     uint64
	stored [2][]storedTuple // per slot, in sequence order
}

const (
	livenessW    = 64 // count window, in sequences; MaxLive when timed
	livenessSpan = 40 // time window; timestamps advance ~1 per arrival
)

func newLivenessModel(seed int64, self, timed bool, heads [2]uint64) *livenessModel {
	span := uint64(0)
	if timed {
		span = livenessSpan
	}
	m := &livenessModel{
		// Keys are drawn from [0, 256): a half-width of 12 makes most probes
		// match several residents.
		Sequencer: NewSequencer(livenessW, livenessW, self, join.Band{Diff: 12}, span),
		rng:       rand.New(rand.NewSource(seed)),
	}
	m.heads = heads
	return m
}

func (m *livenessModel) config(kind join.IndexKind) Config {
	return Config{WR: livenessW, WS: livenessW, Self: m.self, Timed: m.span > 0, Index: kind}
}

// arrive sequences one random arrival into its probe and insert ops.
func (m *livenessModel) arrive() (probe, insert op) {
	s := uint8(m.rng.Intn(2))
	key := uint32(m.rng.Intn(256))
	if m.span > 0 {
		m.ts += uint64(m.rng.Intn(3))
	}
	own, probed, lo, hi, te, tl, seq, wm := m.Next(s, key, m.ts)
	return op{kind: opProbe, stream: probed, lo: lo, hi: hi, te: te, tl: tl},
		op{kind: opInsert, stream: own, key: key, seq: seq, te: wm, ts: m.ts}
}

// store records an insert the system under test was given.
func (m *livenessModel) store(ins op) {
	m.stored[ins.stream] = append(m.stored[ins.stream], storedTuple{ins.key, ins.seq, ins.ts})
}

// expired reports whether t lies below the watermark te: a sequence for count
// windows, an event time for timed ones.
func (m *livenessModel) expired(t storedTuple, te uint64) bool {
	if m.span > 0 {
		return t.ts < te
	}
	return t.seq < te
}

// want answers a probe by brute force: every stored tuple of the probed slot
// in the key range, sequenced before the probe, and not yet expired.
func (m *livenessModel) want(p op) []uint64 {
	var out []uint64
	for _, t := range m.stored[p.stream] {
		if t.key >= p.lo && t.key <= p.hi && t.seq < p.tl && !m.expired(t, p.te) {
			out = append(out, t.seq)
		}
	}
	return out
}

// forget drops records that expired before p: watermarks only rise, so they
// can never match again, and the scan stays short.
func (m *livenessModel) forget(p op) {
	st := m.stored[p.stream]
	i := 0
	for i < len(st) && m.expired(st[i], p.te) {
		i++
	}
	m.stored[p.stream] = st[i:]
}

func sameMultiset(a, b []uint64) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// checkProbe runs one probe on the engine and compares it with the model.
func (m *livenessModel) checkProbe(t *testing.T, e *engine, p op, dst []uint64) []uint64 {
	t.Helper()
	dst = e.probe(&p, dst)
	if want := m.want(p); !sameMultiset(dst, want) {
		t.Fatalf("probe of slot %d keys [%d,%d] window [%d,%d): got %v, want %v", p.stream, p.lo, p.hi, p.te, p.tl, dst, want)
	}
	m.forget(p)
	return dst
}

// TestShardLivenessOracle drives one engine the way a shard of a larger
// router is driven — it is handed only some of the probes and some of the
// inserts, so its sequences are non-consecutive — across every backend, count
// and timed windows, self and two-stream joins.
func TestShardLivenessOracle(t *testing.T) {
	const arrivals = 6000
	for _, kind := range allIndexKinds {
		for _, timed := range []bool{false, true} {
			for _, self := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/timed=%v/self=%v", kind, timed, self), func(t *testing.T) {
					// The heads differ per stream and both cross 2^32 well
					// inside the run.
					m := newLivenessModel(11, self, timed, [2]uint64{1<<32 - 900, 1<<32 - 1700})
					e := newEngine(m.config(kind))
					var dst []uint64
					for i := 0; i < arrivals; i++ {
						p, ins := m.arrive()
						if m.rng.Intn(5) < 3 {
							dst = m.checkProbe(t, e, p, dst)
						}
						if m.rng.Intn(2) == 0 {
							e.insert(&ins)
							m.store(ins)
						}
						if m.rng.Intn(8) == 0 {
							e.maintain() // a batch boundary
						}
					}
					if m.heads[0] <= 1<<32 || !self && m.heads[1] <= 1<<32 {
						t.Fatalf("heads %v never crossed 2^32: the refs did not wrap", m.heads)
					}
					if merges, _ := e.merges(); merges == 0 && !e.idxs[0].Eager() {
						t.Fatal("no delta merge ran: the merge filter was not exercised")
					}
				})
			}
		}
	}
}

// TestShardLivenessColdShard pins the wrap rule. A shard goes cold holding
// entries in its index, the stream moves on by about 2^31 or 2^32 sequences,
// and the next tuple and probes arrive in one batch — no maintenance pass in
// between. The jumps of 2^32-3 and 3·2^32-3 land the new tuple's probe
// exactly where a lingering entry's ref reads as age 0.
func TestShardLivenessColdShard(t *testing.T) {
	const base = 1000
	for _, kind := range allIndexKinds {
		for _, tc := range []struct {
			jump    uint64
			reindex bool
		}{
			{1<<31 - 6, false}, // the next sequence is 2^31-1 past the index's first
			{1<<31 - 5, true},  // exactly 2^31 past it
			{1<<32 - 3, true},
			{1<<32 + 7, true},
			{3<<32 - 3, true},
		} {
			t.Run(fmt.Sprintf("%v/jump=%#x", kind, tc.jump), func(t *testing.T) {
				m := newLivenessModel(5, true, false, [2]uint64{base, 0})
				e := newEngine(m.config(kind))
				var dst []uint64
				step := func() {
					p, ins := m.arrive()
					dst = m.checkProbe(t, e, p, dst)
					e.insert(&ins)
					m.store(ins)
				}
				for i := 0; i < 5; i++ {
					step()
				}
				e.maintain()
				m.heads[0] += tc.jump
				step()
				if reindexed := e.stores[0].first != base; reindexed != tc.reindex {
					t.Fatalf("store began at %d after the jump: reindexed %v, want %v", e.stores[0].first, reindexed, tc.reindex)
				}
				for i := 0; i < 3; i++ {
					step()
				}
				e.maintain()
				for i := 0; i < 40; i++ {
					step()
				}
			})
		}
	}
}

// TestShardLivenessSpanGuard pins the guard beside the 32-bit arithmetic: a
// probe whose live range does not fit 31 bits must stop the engine by name,
// never answer.
func TestShardLivenessSpanGuard(t *testing.T) {
	e := newEngine(Config{WR: 8, WS: 8, Self: true, Index: join.IndexPIMTree})
	// Watermarks of zero: nothing is ever evicted, which no Sequencer would do.
	e.insert(&op{kind: opInsert, key: 1, seq: 10})
	if got := e.probe(&op{kind: opProbe, hi: 9, tl: 10 + 1<<31}, nil); !sameMultiset(got, []uint64{10}) {
		t.Fatalf("probe over exactly 2^31 sequences: got %v, want [10]", got)
	}
	e.insert(&op{kind: opInsert, key: 2, seq: 10 + 1<<31})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard: live span overflow") {
			t.Fatalf("probe over 2^31+1 sequences: recovered %v, want the live span overflow panic", r)
		}
	}()
	e.probe(&op{kind: opProbe, hi: 9, tl: 11 + 1<<31}, nil)
}

// TestShardLivenessReshapeWrapped runs grow and shrink reshape epochs —
// extract, fresh engines, load — on a router whose sequence heads cross 2^32
// mid-run, against the serial join on the same arrivals.
func TestShardLivenessReshapeWrapped(t *testing.T) {
	const w, n = 256, 4000
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stepSkewArrivals(71, n, n/5)
	want := serialOracle(arr, w, w, false, band)
	base := [2]uint64{1<<32 - 500, 1<<32 - 900}
	for _, kind := range []join.IndexKind{join.IndexPIMTree, join.IndexBTree} {
		var got []triple
		r := NewRouter(Config{
			Shards: 3, BatchSize: 16, WR: w, WS: w, Band: band, Index: kind,
			// The sink runs under the FanIn's propagation lock: one call at a time.
			Sink: func(s uint8, p, m uint64) { got = append(got, triple{s, p - base[s], m - base[opposite(s)]}) },
		}, len(arr))
		r.heads = base
		for i, a := range arr {
			if i > 0 && i%512 == 0 {
				// Grow to 5 shards and shrink back to 3, alternately.
				r.Reshape(Reshape{Shards: 3 + (i/512)%2*2})
			}
			r.Push(a)
		}
		st := r.Close()
		sortTriples(got)
		if r.Reshapes() == 0 || st.Migrated == 0 || r.heads[0] <= 1<<32 || r.heads[1] <= 1<<32 {
			t.Fatalf("%v: %d reshapes migrating %d tuples, heads %v: the run did not reshape across the wrap",
				kind, r.Reshapes(), st.Migrated, r.heads)
		}
		if !equalTriples(got, want) {
			t.Fatalf("%v: multiset differs after %d reshapes (%d vs %d matches)", kind, r.Reshapes(), len(got), len(want))
		}
	}
}

// TestShardLivenessHandoffWrapped is the cluster handoff with wrapped refs: a
// Member applies pre-sequenced ops, hands off part of its key range and
// takes it back after the heads crossed 2^32, and keeps answering exactly.
func TestShardLivenessHandoffWrapped(t *testing.T) {
	const arrivals = 3000
	for _, kind := range []join.IndexKind{join.IndexPIMTree, join.IndexBTree} {
		m := newLivenessModel(23, false, false, [2]uint64{1<<32 - 300, 1<<32 - 500})
		var ops []Op
		expected := make(map[uint64][]uint64)
		for i := uint64(0); i < arrivals; i++ {
			p, ins := m.arrive()
			ops = append(ops,
				Op{Stream: p.stream, Lo: p.lo, Hi: p.hi, TE: p.te, TL: p.tl, Idx: i},
				Op{Insert: true, Stream: ins.stream, Key: ins.key, Seq: ins.seq, TE: ins.te})
			expected[i] = m.want(p) // in sequence order, as the sink sorts
			m.forget(p)
			m.store(ins)
		}
		sink := newResultSink()
		mem := NewMember(MemberConfig{Shards: 3, WR: livenessW, WS: livenessW, Index: kind, BatchSize: 5}, sink.onResult)
		// The member splits the full key domain; the model's keys all fall in
		// its first shard, which is the point: one engine, one index, handed
		// off and back.
		cut := len(ops) * 2 / 3
		applyAll(mem, ops[:cut], m.rng)
		before := mem.Resident()
		// A map of 2^26 nodes gives each a 64-key slice: the member keeps
		// [0, 64) and hands off the rest of the model's keys.
		out := mem.Reassign(0, 1<<26, nil)
		if len(out) == 0 || mem.Resident()+len(out) != before {
			t.Fatalf("%v: exported %d of %d resident, %d left", kind, len(out), before, mem.Resident())
		}
		for _, wt := range out {
			if wt.Seq < 1<<32 {
				t.Fatalf("%v: exported seq %d below 2^32: the handoff was not across the wrap", kind, wt.Seq)
			}
		}
		if back := mem.Reassign(0, 1, out); len(back) != 0 {
			t.Fatalf("%v: sole node handed back %d tuples", kind, len(back))
		}
		applyAll(mem, ops[cut:], m.rng)
		mem.Close()
		sink.compare(t, expected)
	}
}

// TestShardLocatedAcrossReindex applies chunks the way a worker does —
// locate the chunk, then apply its ops — to an engine whose TS holds several
// subindexes, and lets one insert in the middle of a chunk jump the stream
// 2^32 on: add reindexes the slot into a brand-new index, and every position
// the chunk located in the old index must be turned away by the new one.
func TestShardLocatedAcrossReindex(t *testing.T) {
	const base = 1000
	for _, kind := range allIndexKinds {
		t.Run(kind.String(), func(t *testing.T) {
			m := newLivenessModel(38, true, false, [2]uint64{base, 0})
			cfg := m.config(kind)
			// Narrow nodes give a window-sized TS several subindexes.
			cfg.PIM.CSTree, cfg.PIM.InsertionDepth = cstree.Config{Fanout: 2, LeafSize: 2}, 2
			e := newEngine(cfg)
			var dst []uint64
			apply := func(chunk []op) {
				e.locate(chunk)
				for j := range chunk {
					if o := &chunk[j]; o.kind == opProbe {
						dst = m.checkProbe(t, e, *o, dst)
					} else {
						e.insert(o)
						m.store(*o)
					}
				}
				e.locs.Reset()
			}
			arrive := func(chunk []op, n int) []op {
				for i := 0; i < n; i++ {
					p, ins := m.arrive()
					chunk = append(chunk, p, ins)
				}
				return chunk
			}
			for i := 0; i < 20; i++ {
				apply(arrive(nil, join.LocateChunk/2))
				e.maintain()
			}
			if merges, _ := e.merges(); merges == 0 && !e.idxs[0].Eager() {
				t.Fatal("no delta merge ran: TS is empty and locating it proves nothing")
			}
			chunk := arrive(nil, join.LocateChunk/4)
			m.heads[0] += 1<<32 - 3
			apply(arrive(chunk, join.LocateChunk/4))
			if e.stores[0].first == base {
				t.Fatal("the jump did not reindex the slot")
			}
			for i := 0; i < 4; i++ {
				apply(arrive(nil, join.LocateChunk/2))
				e.maintain()
			}
		})
	}
}
