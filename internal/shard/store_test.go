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
	"pimtree/internal/wal"
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
		if c.gaps != nil {
			held += int(unsafe.Sizeof(*c.gaps))
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

// escapes returns how many gaps s's escape FIFO holds for residents and the
// bytes its backing array takes.
func escapes(s *store) (live, bytes int) {
	return len(s.esc) - s.escAt, cap(s.esc) * int(unsafe.Sizeof(s.esc[:1][0]))
}

// slotBytes is what one slot of s's form should cost: a gap byte, a key if
// keyed and an event time if timed.
func slotBytes(s *store) int {
	n := 1
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

	coldJumps, farJumps, edgeEscapes, empties, maxRing, peakEsc int
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

// append appends one tuple 1–3 sequences on. With jumps set, the sequence
// sometimes leaps by more than 2^32 (a shard that was cold while the stream
// moved on) or by 2^31–2^32 (a gap that escapes to the FIFO at its widest).
func (h *storeHarness) append(jumps bool) {
	var gap uint64
	switch r := h.rng.Intn(300); {
	case jumps && r == 0:
		gap = 1<<32 + uint64(h.rng.Intn(1<<20))
		h.coldJumps++
	case jumps && r < 4:
		gap = 1<<31 + uint64(h.rng.Int63n(1<<31))
		if len(h.m.live) > 0 {
			h.farJumps++
		}
	default:
		gap = 1 + uint64(h.rng.Intn(3))
	}
	h.appendGap(gap)
}

// appendGap appends one tuple gap sequences past the last one.
func (h *storeHarness) appendGap(gap uint64) {
	h.t.Helper()
	h.seq += gap
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
	if j := h.s.head & chunkMask; len(h.m.live) > 0 && gap >= 1<<8 && (j == 0 || j == chunkMask) {
		h.edgeEscapes++
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
		if s.oldest != live[0].seq {
			h.t.Fatalf("oldest resident seq %d, want %d", s.oldest, live[0].seq)
		}
		if s.newest != live[len(live)-1].seq {
			h.t.Fatalf("newest resident seq %d, want %d", s.newest, live[len(live)-1].seq)
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

// checkAll walks every resident from the tail and compares it, the escape
// FIFO, holds, liveFrom, live and span with the model. A keyless store's live
// walk reads its index, which the harness does not build;
// TestEngineLiveFromIndex checks that walk.
func (h *storeHarness) checkAll() {
	h.t.Helper()
	s, live := h.s, h.m.live
	c, esc := s.begin(), 0
	for i, want := range live {
		if c.pos != s.tail+uint64(i) {
			h.t.Fatalf("walk step #%d is at position %d, want %d", i, c.pos-s.tail, i)
		}
		key, ts := s.at(c.pos)
		if got := (storedTuple{key, c.seq, ts}); got != want {
			h.t.Fatalf("resident #%d is %+v, want %+v", i, got, want)
		}
		if i > 0 && want.seq-live[i-1].seq >= 1<<8 {
			esc++
		}
		s.next(&c)
	}
	if c.pos != s.head {
		h.t.Fatalf("walk ended at position %d, head is %d", c.pos, s.head)
	}
	n, bytes := escapes(s)
	h.peakEsc = max(h.peakEsc, esc)
	if n != esc || bytes > 8*h.peakEsc+64 {
		h.t.Fatalf("escape FIFO holds %d gaps in %d B, want %d gaps in at most %d B", n, bytes, esc, 8*h.peakEsc+64)
	}

	tuples := make([]wal.Tuple, len(live))
	for i, r := range live {
		tuples[i].Seq = r.seq
	}
	if !s.holds(s.wm, tuples) {
		h.t.Fatal("holds rejects the store's own residents")
	}
	if len(tuples) > 0 {
		tuples[h.rng.Intn(len(tuples))].Seq++
		if s.holds(s.wm, tuples) {
			h.t.Fatal("holds accepts a resident list with one sequence changed")
		}
	}

	wm := h.ts + 1
	if len(live) > 0 {
		wm = h.m.by(live[h.rng.Intn(len(live))]) + uint64(h.rng.Intn(2))
	}
	from := h.m.liveFrom(wm)
	if got := s.liveFrom(wm); got.pos != s.tail+uint64(from) || from < len(live) && got.seq != live[from].seq {
		h.t.Fatalf("liveFrom(%d) = position %d seq %d, want %d", wm, got.pos-s.tail, got.seq, from)
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
	if h.coldJumps == 0 || h.farJumps == 0 || h.empties < 4 || h.maxRing < 8 || h.s.head < 1<<16 {
		t.Fatalf("%d cold jumps, %d jumps over residents, %d empties, ring up to %d, %d appends: the run missed a case",
			h.coldJumps, h.farJumps, h.empties, h.maxRing, h.s.head)
	}
}

// storeGaps are the gaps the gap tests append: the widest a byte holds, the
// narrowest that escapes, and the widest a resident may lie past another.
var storeGaps = []uint64{1, 255, 256, 1<<31 - 1}

// TestStoreGaps walks each store form through every gap of storeGaps at the
// positions around chunk edges, evicting part of the store to a watermark
// between residents after each, and emptying and refilling it each round;
// evict, liveFrom, holds and the walk are checked against the model's
// sequences throughout.
func TestStoreGaps(t *testing.T) {
	for _, f := range storeForms {
		t.Run(fmt.Sprintf("keyed=%v/timed=%v", f.keyed, f.timed), func(t *testing.T) {
			h := newStoreHarness(t, f.keyed, f.timed, 5)
			for round := 0; round < 3; round++ {
				for _, g := range storeGaps {
					for h.s.head&chunkMask != chunkMask-1 {
						h.appendGap(1 + uint64(h.rng.Intn(2)))
					}
					for range 4 { // at the last two slots of a chunk and the first two of the next
						h.appendGap(g)
					}
					h.checkAll()
					if n := len(h.m.live); n > 1 {
						h.evictTo(h.m.by(h.m.live[h.rng.Intn(n-1)]) + 1)
						h.checkAll()
					}
				}
				h.evict(len(h.m.live))
				h.checkAll()
			}
			if h.edgeEscapes < 6 || h.empties < 3 || h.peakEsc == 0 {
				t.Fatalf("%d escapes at a chunk edge, %d empties, at most %d escapes resident: the run missed a case",
					h.edgeEscapes, h.empties, h.peakEsc)
			}
		})
	}
}

// fuzzGaps are the gaps FuzzStoreModel appends: storeGaps, their neighbours,
// and jumps of 2^32 and more that only a store emptied first can take.
var fuzzGaps = []uint64{1, 2, 3, 254, 255, 256, 257, 1 << 16, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 40}

// FuzzStoreModel runs a store of each form through an arbitrary sequence of
// appends with a chosen gap, runs up to a chunk edge, evictions to a
// watermark and full walks, checking it against the model after each. One
// byte is one operation: the low two bits pick it, the rest its argument.
// `go test -fuzz=FuzzStoreModel ./internal/shard` explores further.
func FuzzStoreModel(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4, 28, 32, 3, 1, 20, 24, 3, 254, 3})
	f.Add(uint8(1), []byte{5, 28, 29, 30, 31, 3, 2, 6, 3, 250, 3, 40, 44, 3})
	f.Add(uint8(2), []byte{9, 1, 32, 36, 40, 44, 3, 46, 3, 255, 0, 3})
	f.Fuzz(func(t *testing.T, form uint8, ops []byte) {
		sf := storeForms[int(form)%len(storeForms)]
		h := newStoreHarness(t, sf.keyed, sf.timed, int64(form))
		for _, b := range ops[:min(len(ops), 256)] {
			arg := int(b >> 2)
			switch b & 3 {
			case 0:
				h.appendGap(fuzzGaps[arg%len(fuzzGaps)])
			case 1: // gaps of 1 up to arg%4 slots before the next chunk edge
				for h.s.head&chunkMask != uint64(chunkMask-arg%4) {
					h.appendGap(1)
				}
			case 2:
				h.evict(arg)
			case 3:
				h.checkAll()
			}
		}
		h.checkAll()
	})
}

// TestStoreSpanGuard: the store keeps the 32-bit ref guard. Residents 2^31
// apart are a span the probe arithmetic cannot cover, and a tuple 2^32 past
// the newest resident could never be compared with it; both panic by name,
// the latter before the store changes. A gap of 2^32-1 escapes and reads back
// whole.
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
		mustPanic("a tuple 2^32 past the newest resident", func() { s.append(4, 10+1<<31+1<<32, 4) })

		s = newStore(f.keyed, f.timed)
		for i := uint64(0); i < chunkSlots; i++ {
			s.append(uint32(i), i, i)
		}
		s.append(5, 1<<32-1+chunkSlots-1, chunkSlots)
		if c := s.liveFrom(chunkSlots); c.pos != chunkSlots || c.seq != 1<<32-1+chunkSlots-1 {
			t.Fatalf("after a 2^32-1 gap across a chunk edge the newest resident reads position %d seq %d", c.pos, c.seq)
		}
		mustPanic("residents 2^32-1 apart", func() { s.span(1<<32 + chunkSlots) })
		mustPanic("a tuple 2^32 past the newest resident across a chunk edge", func() { s.append(6, 2<<32+chunkSlots-2, chunkSlots+1) })
		if s.head != chunkSlots+1 || s.newest != 1<<32-1+chunkSlots-1 {
			t.Fatalf("a refused append left %d residents, newest %d", s.head, s.newest)
		}
	}
}

// TestStoreSteadyStateAllocs: a store sliding a fixed window across chunk
// edges reuses its freed chunks and allocates nothing — also when every gap
// escapes, since the escape FIFO then reuses the room the tail frees rather
// than growing.
func TestStoreSteadyStateAllocs(t *testing.T) {
	for _, f := range storeForms {
		for _, gap := range []uint64{1, 300} {
			const live = 3*chunkSlots + 123
			s := newStore(f.keyed, f.timed)
			seq := uint64(1<<32 - 2*chunkSlots)
			step := func() {
				s.evict(seq-gap*(live-1), nil) // seq doubles as the event time
				s.append(uint32(seq), seq, seq)
				seq += gap
			}
			for s.head < live+2*chunkSlots {
				step()
			}
			if allocs := testing.AllocsPerRun(4*chunkSlots, step); allocs != 0 {
				t.Fatalf("%+v gap %d: append+evict allocates %.2f times per call in steady state", f, gap, allocs)
			}
			if got := s.head - s.tail; got != live {
				t.Fatalf("%+v gap %d: %d residents, want %d", f, gap, got, live)
			}
			if _, bytes := escapes(s); bytes > 8*live {
				t.Fatalf("%+v gap %d: the escape FIFO takes %d B for %d residents", f, gap, bytes, live)
			}
		}
	}
}
