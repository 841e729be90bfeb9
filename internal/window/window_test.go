package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimtree/internal/kv"
)

func TestRingBasics(t *testing.T) {
	r := NewRing(4)
	for i := uint32(0); i < 4; i++ {
		_, seq, _, hasExp := r.Append(i * 10)
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
		if hasExp {
			t.Fatalf("tuple %d expired before window filled", i)
		}
	}
	if r.Count() != 4 {
		t.Fatalf("Count = %d, want 4", r.Count())
	}
	// The fifth append expires the first tuple.
	_, _, exp, hasExp := r.Append(40)
	if !hasExp {
		t.Fatal("no expiry when window slid")
	}
	if exp.Key != 0 {
		t.Fatalf("expired key = %d, want 0", exp.Key)
	}
	if r.Count() != 4 {
		t.Fatalf("Count = %d after slide, want 4", r.Count())
	}
}

func TestRingLiveness(t *testing.T) {
	r := NewRing(8)
	refs := make([]uint32, 0, 100)
	seqs := make([]uint64, 0, 100)
	for i := 0; i < 100; i++ {
		ref, seq, _, _ := r.Append(uint32(i))
		refs = append(refs, ref)
		seqs = append(seqs, seq)
	}
	for i := 0; i < 100; i++ {
		// A tuple is live iff its ref still resolves, live, to it.
		wantLive := i >= 92
		if _, seq, live := r.Resolve(refs[i]); (live && seq == seqs[i]) != wantLive {
			t.Fatalf("tuple %d: Resolve(%d) = (seq %d, live %v), want it live %v", i, refs[i], seq, live, wantLive)
		}
	}
	// Refs of live tuples resolve; refs of long-dead tuples either resolve
	// to reused slots (different seq) or fail the live check.
	for i := 92; i < 100; i++ {
		key, seq, live := r.Resolve(refs[i])
		if !live || key != uint32(i) || seq != seqs[i] {
			t.Fatalf("Resolve of live tuple %d failed: key=%d seq=%d live=%v", i, key, seq, live)
		}
	}
}

func TestRingScanOrder(t *testing.T) {
	r := NewRing(5)
	for i := 0; i < 12; i++ {
		r.Append(uint32(i * 2))
	}
	var keys []uint32
	var lastSeq uint64
	r.Scan(func(key uint32, seq uint64) bool {
		keys = append(keys, key)
		lastSeq = seq
		return true
	})
	if len(keys) != 5 {
		t.Fatalf("Scan visited %d tuples, want 5", len(keys))
	}
	if keys[0] != 14 || keys[4] != 22 {
		t.Fatalf("Scan keys = %v, want [14 16 18 20 22]", keys)
	}
	if lastSeq != 11 {
		t.Fatalf("last seq = %d, want 11", lastSeq)
	}
}

func TestRingScanEarlyStop(t *testing.T) {
	r := NewRing(10)
	for i := 0; i < 10; i++ {
		r.Append(uint32(i))
	}
	n := 0
	r.Scan(func(uint32, uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}

func TestRingExpirySequence(t *testing.T) {
	// Every append past w must expire exactly the tuple w arrivals earlier.
	w := 16
	r := NewRing(w)
	var expired []kv.Pair
	for i := 0; i < 100; i++ {
		_, _, exp, has := r.Append(uint32(i))
		if has {
			expired = append(expired, exp)
		}
	}
	if len(expired) != 100-w {
		t.Fatalf("expired %d tuples, want %d", len(expired), 100-w)
	}
	for i, e := range expired {
		if e.Key != uint32(i) {
			t.Fatalf("expiry %d returned key %d, want %d", i, e.Key, i)
		}
	}
}

func TestRingInvalidLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

// Property: at any point, Count() == min(appends, w), and the live content
// is exactly the last min(appends, w) keys.
func TestQuickRingContent(t *testing.T) {
	f := func(keys []uint32, wRaw uint8) bool {
		w := int(wRaw%32) + 1
		r := NewRing(w)
		for _, k := range keys {
			r.Append(k)
		}
		wantCount := len(keys)
		if wantCount > w {
			wantCount = w
		}
		if r.Count() != wantCount {
			return false
		}
		var got []uint32
		r.Scan(func(key uint32, _ uint64) bool {
			got = append(got, key)
			return true
		})
		if len(got) != wantCount {
			return false
		}
		for i := 0; i < wantCount; i++ {
			if got[i] != keys[len(keys)-wantCount+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeRingBasics(t *testing.T) {
	r := NewTimeRing(100, 16)
	var expired []kv.Pair
	onExp := func(p kv.Pair) { expired = append(expired, p) }
	r.Append(1, 0, onExp)
	r.Append(2, 50, onExp)
	r.Append(3, 99, onExp)
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
	// ts=100 evicts the ts=0 tuple (age 100 >= span 100).
	r.Append(4, 100, onExp)
	if len(expired) != 1 || expired[0].Key != 1 {
		t.Fatalf("expired = %v, want key 1", expired)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
}

func TestTimeRingAdvanceTime(t *testing.T) {
	r := NewTimeRing(10, 16)
	r.Append(1, 0, nil)
	r.Append(2, 5, nil)
	var expired []kv.Pair
	r.AdvanceTime(14, func(p kv.Pair) { expired = append(expired, p) })
	if len(expired) != 1 || expired[0].Key != 1 {
		t.Fatalf("expired = %v, want key 1 only", expired)
	}
	r.AdvanceTime(100, func(p kv.Pair) { expired = append(expired, p) })
	if len(expired) != 2 {
		t.Fatalf("expired = %v, want both", expired)
	}
	if r.Count() != 0 {
		t.Fatalf("Count = %d, want 0", r.Count())
	}
}

func TestTimeRingGrowth(t *testing.T) {
	r := NewTimeRing(1<<40, 16)
	prevCap := r.Capacity()
	for i := 0; i < 1000; i++ {
		r.Append(uint32(i), uint64(i), nil)
	}
	if r.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", r.Count())
	}
	if !r.NeedsReindex(prevCap) {
		t.Fatal("ring should have grown")
	}
	// All tuples remain addressable in order after growth.
	i := 0
	r.Scan(func(key uint32, seq uint64, ts uint64) bool {
		if key != uint32(i) || seq != uint64(i) || ts != uint64(i) {
			t.Fatalf("tuple %d = (%d,%d,%d)", i, key, seq, ts)
		}
		i++
		return true
	})
	if i != 1000 {
		t.Fatalf("scanned %d, want 1000", i)
	}
}

func TestTimeRingRegressPanics(t *testing.T) {
	r := NewTimeRing(10, 16)
	r.Append(1, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("timestamp regression did not panic")
		}
	}()
	r.Append(2, 50, nil)
}

func TestPow2Ceil(t *testing.T) {
	cases := map[uint64]uint64{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := pow2Ceil(in); got != want {
			t.Fatalf("pow2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

// ringShadow is the array-reading form Ring used to have: one stored
// (key, seq) per slot, with liveness decided from the stored sequence. The
// positional arithmetic in Ring must agree with it slot for slot.
type ringShadow struct {
	keys   []uint32
	seqs   []uint64
	issued []bool
	head   uint64
	w      uint64
}

func (s *ringShadow) append(ref uint32, key uint32) {
	s.keys[ref], s.seqs[ref], s.issued[ref] = key, s.head, true
	s.head++
}

func (s *ringShadow) live(ref uint32) bool {
	return s.issued[ref] && s.seqs[ref] < s.head && s.head-s.seqs[ref] <= s.w
}

// checkRingAgainstShadow compares every slot of the keyed ring r with the
// shadow, and every index entry in held with the slot it names in r and in
// the keyless ring k (fed the same arrivals): the occupant must still be the
// tuple the entry was inserted for (no reuse under a held reference).
func checkRingAgainstShadow(t *testing.T, r, k *Ring, s *ringShadow, held []heldEntry) {
	t.Helper()
	for ref := uint32(0); int(ref) < len(r.keys); ref++ {
		want := s.live(ref)
		if got := r.Live(ref); got != want {
			t.Fatalf("head %d: Live(%d) = %v, shadow says %v", s.head, ref, got, want)
		}
		key, seq, live := r.Resolve(ref)
		if live != want {
			t.Fatalf("head %d: Resolve(%d) live = %v, shadow says %v", s.head, ref, live, want)
		}
		if !s.issued[ref] {
			if seq < r.Head() {
				t.Fatalf("head %d: never-issued ref %d resolves to issued seq %d", s.head, ref, seq)
			}
			continue
		}
		if key != s.keys[ref] || seq != s.seqs[ref] {
			t.Fatalf("head %d: slot %d = (%d, %d), shadow (%d, %d)", s.head, ref, key, seq, s.keys[ref], s.seqs[ref])
		}
	}
	for _, e := range held {
		want := s.head-e.seq <= s.w
		if _, seq, live := r.Resolve(e.ref); seq != e.seq || live != want {
			t.Fatalf("head %d: held ref %d (seq %d) resolves to (seq %d, live %v), want live %v", s.head, e.ref, e.seq, seq, live, want)
		}
		if got := r.Live(e.ref); got != want {
			t.Fatalf("head %d: Live(%d) = %v, but seq %d is live = %v", s.head, e.ref, got, e.seq, want)
		}
		kref := uint32(e.seq)
		if _, seq, live := k.Resolve(kref); seq != e.seq || live != want || k.Live(kref) != want {
			t.Fatalf("head %d: keyless ref %d (seq %d) resolves to (seq %d, live %v), want live %v", s.head, kref, e.seq, seq, live, want)
		}
	}
}

// heldEntry is an index element as a delta-merge index holds it: the ref,
// plus (for the test only) the sequence it was inserted for.
type heldEntry struct {
	ref uint32
	seq uint64
}

// Property: over random append / merge schedules, the positional Live and
// Resolve agree with stored sequences for every slot, and no ref an index
// still holds (age < (1+m)w, pruned by Live at each merge) is reused, in the
// keyed ring or in a keyless one fed the same arrivals.
func TestRingPositionalMatchesStoredSeqs(t *testing.T) {
	for _, w := range []int{1, 3, 1000, 1 << 12} {
		for _, m := range []float64{1.0 / 16, 0.5, 1} {
			r, k := NewRing(w), NewKeylessRing(w)
			n := len(r.keys)
			s := &ringShadow{keys: make([]uint32, n), seqs: make([]uint64, n), issued: make([]bool, n), w: uint64(w)}
			rng := rand.New(rand.NewSource(int64(w)*31 + int64(m*16)))
			threshold := int(m * float64(w))
			if threshold < 1 {
				threshold = 1
			}
			var held []heldEntry
			sinceMerge := 0
			checkRingAgainstShadow(t, r, k, s, held) // head == 0: nothing is live
			// Full sweeps are O(cap); space them so large windows stay fast
			// while windows of 1 and 3 are swept after every append.
			every := n / 16
			for i := 0; i < 3*n+w+7; i++ {
				key := rng.Uint32()
				ref, seq, _, _ := r.Append(key)
				if seq != s.head {
					t.Fatalf("Append seq = %d, want %d", seq, s.head)
				}
				s.append(ref, key)
				if kref, kseq, _, kexp := k.Append(key); kref != uint32(seq) || kseq != seq || kexp {
					t.Fatalf("keyless Append = (ref %d, seq %d, expired %v), want (%d, %d, false)", kref, kseq, kexp, uint32(seq), seq)
				}
				held = append(held, heldEntry{ref, seq})
				sinceMerge++
				// The engines merge at the threshold; merging early is also
				// legal (it only drops more), merging late is not.
				if merge := sinceMerge >= threshold || rng.Intn(4*threshold) == 0; merge {
					checkRingAgainstShadow(t, r, k, s, held)
					kept := held[:0]
					for _, e := range held {
						if r.Live(e.ref) {
							kept = append(kept, e)
						}
					}
					held, sinceMerge = kept, 0
				} else if every == 0 || i%every == 0 || i < 2*w+4 && rng.Intn(w) == 0 {
					checkRingAgainstShadow(t, r, k, s, held)
				}
				if max := (1 + m) * float64(w); float64(len(held)) > max {
					t.Fatalf("w %d m %v: index holds %d entries, bound %v", w, m, len(held), max)
				}
			}
			checkRingAgainstShadow(t, r, k, s, held)
		}
	}
}

// keyedCap is pow2Ceil(2w+2) up to the 2^32 slots that 32-bit refs can name;
// every window up to 2^31 keeps the 2w slack the invariant needs. The helper
// is tested alone: a keyed ring at w = 2^31 would allocate 16 GiB.
func TestKeyedCap(t *testing.T) {
	cases := map[uint64]uint64{1: 4, 3: 8, 4: 16, 1 << 20: 1 << 22, 1<<30 - 1: 1 << 31, 1 << 30: 1 << 32, 1<<31 - 1: 1 << 32, 1 << 31: 1 << 32}
	for w, want := range cases {
		if got := keyedCap(w); got != want {
			t.Fatalf("keyedCap(%d) = %d, want %d", w, got, want)
		}
	}
	for w := uint64(1); w <= 1<<31; w = w*3 + 1 {
		if c := keyedCap(w); c < 2*w || c > 1<<32 {
			t.Fatalf("keyedCap(%d) = %d, want within [2w, 2^32]", w, c)
		}
	}
}

// A keyless ring's ref is uint32(seq), so refs wrap every 2^32 arrivals.
// Seeded a few arrivals below a multiple of 2^32, with every earlier
// sequence taken as written, the ring must keep Live and Resolve exact
// across the wrap: the ref of each of the last 2w sequences (the ones an
// index may still hold) resolves to that sequence and is live only for the
// last w, and a ref the current lap has not reached is not live.
func TestKeylessRingAcrossWrap(t *testing.T) {
	for _, lap := range []uint64{1, 2, 7} {
		for _, w := range []int{1, 3, 8} {
			r := NewKeylessRing(w)
			head0 := lap<<32 - 5
			r.head = head0
			var shadow []uint64 // sequences in arrival order, history first
			for s := head0 - 2*uint64(w); s < head0; s++ {
				shadow = append(shadow, s)
			}
			for i := 0; i < 2*w+10; i++ {
				ref, seq, _, hasExpired := r.Append(uint32(i))
				if seq != r.Head()-1 || ref != uint32(seq) || hasExpired {
					t.Fatalf("lap %d w %d: Append = (ref %d, seq %d, expired %v) at head %d", lap, w, ref, seq, hasExpired, r.Head())
				}
				shadow = append(shadow, seq)
				head := r.Head()
				if r.Count() != w {
					t.Fatalf("lap %d w %d: Count = %d", lap, w, r.Count())
				}
				for _, s := range shadow[len(shadow)-2*w:] {
					want := head-s <= uint64(w)
					key, got, live := r.Resolve(uint32(s))
					if got != s || live != want || r.Live(uint32(s)) != want || key != 0 {
						t.Fatalf("lap %d w %d head %d: Resolve(%d) = (%d, %d, %v), want (0, %d, %v)", lap, w, head, uint32(s), key, got, live, s, want)
					}
				}
				for d := uint64(0); d < 4; d++ {
					ref := uint32(head + d)
					if _, got, live := r.Resolve(ref); live || r.Live(ref) || got != head+d-1<<32 {
						t.Fatalf("lap %d w %d head %d: unreached ref %d = (seq %d, live %v)", lap, w, head, ref, got, live)
					}
				}
			}
		}
	}
}

// A fresh keyless ring has 2^32 never-written slots; none is live, and each
// resolves to a sequence at or past the head.
func TestKeylessRingNeverWritten(t *testing.T) {
	r := NewKeylessRing(4)
	for i := 0; i <= 2; i++ {
		for _, ref := range []uint32{uint32(r.Head()), 3, 1 << 31, 1<<32 - 1} {
			if uint64(ref) < r.Head() {
				continue
			}
			if _, seq, live := r.Resolve(ref); live || r.Live(ref) || seq < r.Head() {
				t.Fatalf("head %d: never-written ref %d = (seq %d, live %v)", r.Head(), ref, seq, live)
			}
		}
		r.Append(uint32(i))
	}
}
