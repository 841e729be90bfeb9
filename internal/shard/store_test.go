package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"pimtree/internal/kv"
)

// storeModel is the plain reference a store is checked against: its
// residents as (key, seq, ts) records in append order.
type storeModel struct {
	timed bool
	live  []storedTuple
}

// storeForms are the store shapes an engine builds: keyless under a lazily
// pruned index, keyed under an eager one, and keyed and timed.
var storeForms = []struct{ keyed, timed bool }{{false, false}, {true, false}, {true, true}}

// by is the value eviction compares with the watermark.
func (m *storeModel) by(t storedTuple) uint64 {
	if m.timed {
		return t.ts
	}
	return t.seq
}

// liveFrom returns the index of the first record at or above wm.
func (m *storeModel) liveFrom(wm uint64) int {
	i := 0
	for i < len(m.live) && m.by(m.live[i]) < wm {
		i++
	}
	return i
}

// chunkFootprint returns the chunk bytes s's ring holds and the number of
// chunks its free list keeps.
func chunkFootprint(s *store) (held, free int) {
	for _, c := range s.ring {
		if c.refs != nil {
			held += int(unsafe.Sizeof(*c.refs))
		}
		if c.keys != nil {
			held += int(unsafe.Sizeof(*c.keys))
		}
		if c.times != nil {
			held += int(unsafe.Sizeof(*c.times))
		}
	}
	return held, s.nfree
}

// slotBytes is what one slot of s's form should cost: a ref, a key if keyed
// and an event time if timed.
func slotBytes(s *store) int {
	n := 4
	if s.keyed {
		n += 4
	}
	if s.timed {
		n += 8
	}
	return n
}

// storeHarness drives one store and its model through the same operations
// and checks the store after each.
type storeHarness struct {
	t       *testing.T
	rng     *rand.Rand
	s       *store
	m       storeModel
	e       *engine // hosts s as slot 0, for live
	seq, ts uint64  // the last appended tuple's
	evicted []kv.Pair

	coldJumps, rebaseJumps, empties, maxRing int
}

func newStoreHarness(t *testing.T, keyed, timed bool, seed int64) *storeHarness {
	h := &storeHarness{
		t: t, rng: rand.New(rand.NewSource(seed)), s: newStore(keyed, timed),
		m: storeModel{timed: timed}, e: &engine{},
		// The sequences cross 2^32 within the first two chunks.
		seq: 1<<32 - 5000, ts: 1 << 40,
	}
	h.e.stores[0] = h.s
	return h
}

// append appends one tuple. With jumps set, the sequence sometimes leaps by
// more than 2^32 (a shard that was cold while the stream moved on) or by
// 2^31–2^32 (so that a chunk's base must be moved up to fit the newcomer).
func (h *storeHarness) append(jumps bool) {
	switch r := h.rng.Intn(300); {
	case jumps && r == 0:
		h.seq += 1<<32 + uint64(h.rng.Intn(1<<20))
		h.coldJumps++
	case jumps && r < 4:
		h.seq += 1<<31 + uint64(h.rng.Int63n(1<<31))
		if len(h.m.live) > 0 {
			h.rebaseJumps++
		}
	default:
		h.seq += 1 + uint64(h.rng.Intn(3))
	}
	h.ts += 1 + uint64(h.rng.Intn(3))
	// The engine evicts to the watermark before it appends, so a store never
	// holds tuples 2^32 apart; the harness does the same.
	i := 0
	for i < len(h.m.live) && h.seq-h.m.live[i].seq > math.MaxUint32 {
		i++
	}
	if i > 0 {
		h.evict(i)
	}
	t := storedTuple{h.rng.Uint32(), h.seq, h.ts}
	h.s.append(t.key, t.seq, t.ts)
	if !h.s.keyed {
		t.key = 0 // what a keyless store reports
	}
	if !h.m.timed {
		t.ts = 0 // what a count store reports
	}
	h.m.live = append(h.m.live, t)
	h.check()
}

// evict evicts up to n of the oldest residents.
func (h *storeHarness) evict(n int) {
	if n >= len(h.m.live) {
		h.evictTo(max(h.seq, h.ts) + 1) // past everything, in either mode
		return
	}
	h.evictTo(h.m.by(h.m.live[n]))
}

func (h *storeHarness) evictTo(wm uint64) {
	h.t.Helper()
	n := h.m.liveFrom(wm)
	if !h.s.keyed {
		// A keyless store has no pairs to report, and takes no hook.
		h.s.evict(wm, nil)
	} else {
		h.evicted = h.evicted[:0]
		h.s.evict(wm, func(p kv.Pair) { h.evicted = append(h.evicted, p) })
		if len(h.evicted) != n {
			h.t.Fatalf("evict(%d) dropped %d tuples, want %d", wm, len(h.evicted), n)
		}
		for i, p := range h.evicted {
			if want := (kv.Pair{Key: h.m.live[i].key, Ref: uint32(h.m.live[i].seq)}); p != want {
				h.t.Fatalf("evict(%d) reported %v as its #%d, want %v", wm, p, i, want)
			}
		}
	}
	h.m.live = h.m.live[n:]
	if len(h.m.live) == 0 {
		h.empties++
	}
	h.check()
}

// check compares the store's ends and footprint with the model after every
// operation.
func (h *storeHarness) check() {
	h.t.Helper()
	s, live := h.s, h.m.live
	if got := int(s.head - s.tail); got != len(live) {
		h.t.Fatalf("store holds %d tuples, model %d", got, len(live))
	}
	if len(live) > 0 {
		if got := s.seqAt(s.tail); got != live[0].seq {
			h.t.Fatalf("oldest resident seq %d, want %d", got, live[0].seq)
		}
		if got := s.seqAt(s.head - 1); got != live[len(live)-1].seq {
			h.t.Fatalf("newest resident seq %d, want %d", got, live[len(live)-1].seq)
		}
	}
	held, free := chunkFootprint(s)
	if limit := slotBytes(s)*len(live) + 2*chunkSlots*slotBytes(s); held > limit {
		h.t.Fatalf("%d residents hold %d chunk bytes, over %d", len(live), held, limit)
	}
	if len(live) == 0 && held != 0 {
		h.t.Fatalf("an empty store holds %d chunk bytes", held)
	}
	if free > maxFree {
		h.t.Fatalf("free list keeps %d chunks, over %d", free, maxFree)
	}
	h.maxRing = max(h.maxRing, len(s.ring))
}

// checkAll compares every resident, liveFrom, live and span with the
// model. A keyless store's live walk reads its index, which the harness does
// not build; TestEngineLiveFromIndex checks that walk.
func (h *storeHarness) checkAll() {
	h.t.Helper()
	s, live := h.s, h.m.live
	for i, want := range live {
		key, seq, ts := s.at(s.tail + uint64(i))
		if got := (storedTuple{key, seq, ts}); got != want {
			h.t.Fatalf("resident #%d is %+v, want %+v", i, got, want)
		}
	}
	wm := h.ts + 1
	if len(live) > 0 {
		wm = h.m.by(live[h.rng.Intn(len(live))]) + uint64(h.rng.Intn(2))
	}
	from := h.m.liveFrom(wm)
	if got := s.liveFrom(wm); got != s.tail+uint64(from) {
		h.t.Fatalf("liveFrom(%d) = position %d, want %d", wm, got-s.tail, from)
	}
	if s.keyed {
		n, walk := h.e.live(0, wm)
		out := slices.Collect(walk)
		if len(out) != len(live)-from || n != len(out) {
			h.t.Fatalf("live(%d) counted %d and yielded %d tuples, want %d", wm, n, len(out), len(live)-from)
		}
		for i, t := range out {
			want := live[from+i]
			if t.Key != want.key || t.Seq != want.seq || t.TS != want.ts {
				h.t.Fatalf("live #%d is %+v, want %+v", i, t, want)
			}
		}
	}
	if len(live) > 0 {
		hi := h.seq + 1
		if n := hi - live[0].seq; n <= maxSpan {
			if got := s.span(hi); uint64(got) != n {
				h.t.Fatalf("span(%d) = %d, want %d", hi, got, n)
			}
		}
	}
}

// TestStoreModel drives keyless, keyed and timed stores through rounds that
// fill and drain them, against the plain model. Dense rounds grow a store to
// up to six chunks, so its pointer ring doubles; sparse rounds add sequence
// jumps past 2^31 and 2^32. Every round ends empty or nearly so, and refills.
func TestStoreModel(t *testing.T) {
	for _, timed := range []bool{false, true} {
		t.Run(fmt.Sprintf("timed=%v", timed), func(t *testing.T) {
			for _, f := range storeForms {
				if f.timed == timed {
					t.Run(fmt.Sprintf("keyed=%v", f.keyed), func(t *testing.T) { driveStoreModel(t, f.keyed, f.timed) })
				}
			}
		})
	}
}

// driveStoreModel is one TestStoreModel run over a store of the given form.
func driveStoreModel(t *testing.T, keyed, timed bool) {
	h := newStoreHarness(t, keyed, timed, 3)
	for round := 0; round < 12; round++ {
		// A dense round fills to a target; a sparse one, whose jumps
		// keep emptying the store, runs a fixed number of operations.
		jumps := round%2 == 1
		target, budget := 1+h.rng.Intn(6*chunkSlots), math.MaxInt
		if jumps {
			target, budget = math.MaxInt, 3*chunkSlots
		}
		for ops := 0; len(h.m.live) < target && ops < budget; ops++ {
			if h.rng.Intn(3) == 0 {
				h.evict(h.rng.Intn(3))
			} else {
				h.append(jumps)
			}
			if ops%1009 == 0 {
				h.checkAll()
			}
		}
		floor := 0
		if round%4 == 3 {
			floor = h.rng.Intn(16)
		}
		for ops := 0; len(h.m.live) > floor; ops++ {
			if h.rng.Intn(3) == 0 {
				h.append(jumps)
			} else {
				h.evict(min(h.rng.Intn(200), len(h.m.live)-floor))
			}
			if ops%61 == 0 {
				h.checkAll()
			}
		}
		h.checkAll()
	}
	if h.coldJumps == 0 || h.rebaseJumps == 0 || h.empties < 4 || h.maxRing < 8 || h.s.head < 1<<16 {
		t.Fatalf("%d cold jumps, %d jumps over residents, %d empties, ring up to %d, %d appends: the run missed a case",
			h.coldJumps, h.rebaseJumps, h.empties, h.maxRing, h.s.head)
	}
}

// TestStoreSpanGuard: the chunked store keeps the 32-bit ref guard. Residents
// 2^31 apart are a span the probe arithmetic cannot cover, and residents
// 2^32 apart cannot share a chunk; both panic by name.
func TestStoreSpanGuard(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard: live span overflow") {
				t.Fatalf("%s: recovered %v, want the live span overflow panic", name, r)
			}
		}()
		f()
	}
	for _, f := range storeForms {
		s := newStore(f.keyed, f.timed)
		s.append(1, 10, 1)
		s.append(2, 10+1<<31-1, 2)
		if got := s.span(10 + 1<<31); got != 1<<31 {
			t.Fatalf("residents 2^31-1 apart: span %d, want 2^31", got)
		}
		s.append(3, 10+1<<31, 3)
		mustPanic("residents 2^31 apart", func() { s.span(11 + 1<<31) })
		mustPanic("residents 2^32 apart in one chunk", func() { s.append(4, 10+1<<32, 4) })

		// Across a chunk edge each chunk keeps its own base, and span still
		// sees the whole range.
		s = newStore(f.keyed, f.timed)
		for i := uint64(0); i < chunkSlots; i++ {
			s.append(uint32(i), i, i)
		}
		s.append(5, 1<<32+chunkSlots, chunkSlots)
		if _, seq, _ := s.at(s.head - 1); seq != 1<<32+chunkSlots {
			t.Fatalf("newest resident reads seq %d after a 2^32 jump across a chunk edge", seq)
		}
		mustPanic("residents 2^32 apart across a chunk edge", func() { s.span(1<<32 + chunkSlots + 1) })
	}
}

// TestStoreSteadyStateAllocs: a store sliding a fixed window across chunk
// edges reuses its freed chunks and allocates nothing.
func TestStoreSteadyStateAllocs(t *testing.T) {
	for _, f := range storeForms {
		const live = 3*chunkSlots + 123
		s := newStore(f.keyed, f.timed)
		seq := uint64(1<<32 - 2*chunkSlots)
		step := func() {
			s.evict(seq-live+1, nil) // seq doubles as the event time
			s.append(uint32(seq), seq, seq)
			seq++
		}
		for s.head < live+2*chunkSlots {
			step()
		}
		if allocs := testing.AllocsPerRun(4*chunkSlots, step); allocs != 0 {
			t.Fatalf("%+v: append+evict allocates %.2f times per call in steady state", f, allocs)
		}
		if got := s.head - s.tail; got != live {
			t.Fatalf("%+v: %d residents, want %d", f, got, live)
		}
	}
}
