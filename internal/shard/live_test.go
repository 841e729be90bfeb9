package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
)

// liveHarness drives one engine the way a shard of a larger router is
// driven, keeping a store model per slot, and checks engine.live against the
// models. Under the lazily pruned indexes the stores keep no keys, so every
// extract here is a walk of the slot's index.
type liveHarness struct {
	t      *testing.T
	m      *livenessModel // sequences the arrivals; its own records go unused
	e      *engine
	models [2]storeModel
	stale  int // checks that found entries in the index beyond the residents
}

// insert applies an insert op to the engine and its slot's model: evict to
// the op's watermark, then append.
func (h *liveHarness) insert(o op) {
	h.e.insert(&o)
	s := &h.models[o.stream]
	s.live = append(s.live[s.liveFrom(o.te):], storedTuple{o.key, o.seq, 0})
}

// probe applies a probe op, which evicts the probed slot to its watermark.
func (h *liveHarness) probe(o op) {
	h.e.probe(&o, nil)
	s := &h.models[o.stream]
	s.live = s.live[s.liveFrom(o.te):]
}

// check compares live(slot, wm) with the slot's model at a wm drawn from the
// store's own watermark, a point below it, a resident, and past every
// resident: the count, the number of tuples the walk yields, and the tuples
// as a multiset.
func (h *liveHarness) check(slot int) {
	h.t.Helper()
	rng, st, s := h.m.rng, h.e.stores[slot], &h.models[slot]
	wm := st.wm
	switch r := rng.Intn(4); {
	case r == 0 && wm > 0:
		wm -= 1 + uint64(rng.Int63n(int64(min(wm, 64))))
	case r == 1 && len(s.live) > 0:
		wm = s.live[rng.Intn(len(s.live))].seq + uint64(rng.Intn(2))
	case r == 2 && len(s.live) > 0:
		wm = s.live[len(s.live)-1].seq + 1
	}
	n, walk := h.e.live(slot, wm)
	got := slices.Collect(walk)
	want := s.live[s.liveFrom(wm):]
	if n != len(want) || len(got) != n {
		h.t.Fatalf("live(%d, %d) counted %d and yielded %d tuples, want %d", slot, wm, n, len(got), len(want))
	}
	slices.SortFunc(got, func(a, b wal.Tuple) int { return cmp.Compare(a.Seq, b.Seq) })
	for i, tp := range got {
		if w := want[i]; tp.Stream != uint8(slot) || tp.Key != w.key || tp.Seq != w.seq || tp.TS != 0 {
			h.t.Fatalf("live(%d, %d) #%d is %+v, want key %d seq %d", slot, wm, i, tp, w.key, w.seq)
		}
	}
	entries := 0
	h.e.idxs[slot].QueryPairs(0, math.MaxUint32, func(ps []kv.Pair) bool {
		entries += len(ps)
		return true
	})
	if entries > len(s.live) {
		h.stale++
	}
}

// reindexJump moves slot 0 on by 2^30 and then to 2^31 past its store's first
// sequence, with residents before and after the second step, so that add
// reindexes a slot whose index holds live and stale entries alike.
func (h *liveHarness) reindexJump() {
	h.t.Helper()
	first, rng := h.e.stores[0].first, h.m.rng
	seq := first + 1<<30
	for i := uint64(0); i < 20; i++ {
		h.insert(op{kind: opInsert, key: uint32(rng.Intn(256)), seq: seq + i, te: seq})
	}
	h.check(0)
	h.insert(op{kind: opInsert, key: uint32(rng.Intn(256)), seq: first + 1<<31 + 3, te: seq + 5})
	if st := h.e.stores[0]; st.first == first || st.head-st.tail != 16 {
		h.t.Fatalf("after the jump the store began at %d with %d residents: want a reindex keeping 16", st.first, st.head-st.tail)
	}
	h.check(0)
	for i := uint64(4); i < 40; i++ {
		h.insert(op{kind: opInsert, key: uint32(rng.Intn(256)), seq: first + 1<<31 + i, te: seq + 5 + i})
		if i%8 == 0 {
			h.check(0)
			h.e.maintain()
			h.check(0)
		}
	}
}

// TestEngineLiveFromIndex: under every lazily pruned index, engine.live reads
// a slot's live tuples from its index and yields exactly the store model's,
// as a multiset and in the number it announces — before and after merges (so
// TS holds stale entries), at watermarks below the store's own, on sequences
// whose refs wrap past 2^32, with asymmetric windows and self-joins, and
// across the reindex at 2^31.
func TestEngineLiveFromIndex(t *testing.T) {
	const wr, ws = 64, 40
	for _, kind := range []join.IndexKind{join.IndexPIMTree, join.IndexIMTree} {
		for _, self := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/self=%v", kind, self), func(t *testing.T) {
				heads := [2]uint64{1<<32 - 900, 1<<32 - 1700}
				m := newLivenessModel(17, self, false, heads)
				m.Sequencer = NewSequencer(wr, ws, self, join.Band{Diff: 12}, 0)
				m.heads = heads
				h := &liveHarness{t: t, m: m, e: newEngine(Config{WR: wr, WS: ws, Self: self, Index: kind})}
				if h.e.stores[0].keyed {
					t.Fatalf("%v builds keyed stores: the walk under test is not taken", kind)
				}
				for i := 0; i < 6000; i++ {
					p, ins := m.arrive()
					if m.rng.Intn(5) < 3 {
						h.probe(p)
					}
					if m.rng.Intn(2) == 0 {
						h.insert(ins)
					}
					if m.rng.Intn(8) == 0 { // a batch boundary
						slot := m.rng.Intn(storeSlots(self))
						h.check(slot)
						h.e.maintain()
						h.check(slot)
					}
				}
				if m.heads[0] <= 1<<32 || !self && m.heads[1] <= 1<<32 {
					t.Fatalf("heads %v never crossed 2^32: the refs did not wrap", m.heads)
				}
				if merges, _ := h.e.merges(); merges == 0 {
					t.Fatal("no delta merge ran")
				}
				if h.stale == 0 {
					t.Fatal("no check found stale entries in the index: the live filter went unexercised")
				}
				h.reindexJump()
			})
		}
	}
}

// TestShardStoreFootprint pins what a resident tuple costs a shard store: a
// 1-byte gap under the PIM-Tree and the IM-Tree, whose stores keep no keys,
// 5 B under the B+-Tree, which removes each evicted entry by key, and 13 B in
// a timed store — plus, per stream per shard, at most 2 partly filled chunks
// in the ring and 2 spare ones on the free list, and 8 B per escaped gap (4 B
// in a FIFO at most half full). Under uniform keys nothing escapes. The cold
// row routes all but one arrival in 1024 to one stripe, so the other shard
// holds a handful of residents far apart in sequence: there each resident
// escapes but the oldest, and the store costs at most 9 B a resident plus the
// one chunk of gaps its few positions share.
func TestShardStoreFootprint(t *testing.T) {
	const w = 1 << 16
	cases := []struct {
		name    string
		w       int // tuples per stream in the window
		cfg     Config
		perSlot int
		cold    bool
	}{
		{"PIM-Tree", w, Config{WR: w, WS: w, Index: join.IndexPIMTree}, 1, false},
		{"IM-Tree", w, Config{WR: w, WS: w, Index: join.IndexIMTree}, 1, false},
		{"B+-Tree", w, Config{WR: w, WS: w, Index: join.IndexBTree}, 5, false},
		// A wider window, so that the 4 chunks of slack are a small part of
		// the budget.
		{"timed", 4 * w, Config{Timed: true, Span: 8 * w, MaxLive: 8 * w, Slack: 16, Index: join.IndexPIMTree}, 13, false},
		{"cold shard", w / 2, Config{WR: w / 2, WS: w / 2, Index: join.IndexPIMTree}, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Shards, cfg.Band = 2, join.Band{Diff: 2 * stream.UniformDiff(c.w, 2)}
			r := NewRouter(cfg, 0)
			defer r.Close()
			stripe := uint32(1 << 32 / uint64(r.part.(RangePartitioner).n)) // stripe 0 is shard 0's, stripe 1 shard 1's
			for i, a := range stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.5).Take(3 * c.w) {
				switch {
				case !c.cold:
					a.Key <<= 1 // over the whole domain, so both shards hold half the window
				case i%1024 == 0:
					a.Key = stripe + a.Key%stripe
				default:
					a.Key %= stripe
				}
				if cfg.Timed {
					r.PushTimed(uint8(a.Stream), a.Key, uint64(i))
				} else {
					r.Push(a)
				}
			}
			r.Drain()
			for s, e := range r.engines {
				for slot, st := range e.stores {
					held, free := chunkFootprint(st)
					esc, escBytes := escapes(st)
					resident, cost := int(st.head-st.tail), held+free*c.perSlot*chunkSlots+escBytes
					budget := c.perSlot*(resident+4*chunkSlots) + 8*esc
					if c.cold && s == 1 {
						if budget = 9*resident + c.perSlot*chunkSlots; resident == 0 || resident > 64 || esc == 0 {
							t.Fatalf("cold shard slot %d holds %d residents with %d escapes: want a handful, escaped", slot, resident, esc)
						}
					} else if resident < 4*chunkSlots {
						t.Fatalf("shard %d slot %d holds only %d residents", s, slot, resident)
					}
					if cost > budget {
						t.Fatalf("shard %d slot %d: %d residents hold %d chunk bytes, %d spare chunks and %d escapes in %d B: %d B, over %d",
							s, slot, resident, held, free, esc, escBytes, cost, budget)
					}
				}
			}
		})
	}
}
