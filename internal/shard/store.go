package shard

import (
	"math"

	"pimtree/internal/kv"
	"pimtree/internal/wal"
)

// A store keeps its slots in fixed chunks of chunkSlots, one array per column.
// A chunk's refs and its keys are 16 KiB each and its times 32 KiB, every one
// a small-object size class, so a chunk costs what its slots hold and no more.
const (
	chunkShift = 12
	chunkSlots = 1 << chunkShift
	chunkMask  = chunkSlots - 1
	// maxFree bounds the emptied chunks a store keeps for reuse: enough that a
	// window sliding across chunk edges never allocates, no more.
	maxFree = 2
)

// spanOverflow is the panic raised when a range of stored sequences does not
// fit the 32-bit ref arithmetic (see maxSpan).
const spanOverflow = "shard: live span overflow — a window may cover at most 2^31 sequences"

// chunk is chunkSlots consecutive store slots. A slot is the tuple's ref, the
// low 32 bits of its sequence; in keyed stores also its key, and in timed
// stores also its event timestamp. base restores a slot's full sequence: it
// is at or below every resident's sequence, and within 2^32 of each.
type chunk struct {
	base  uint64
	refs  *[chunkSlots]uint32
	keys  *[chunkSlots]uint32 // keyed stores only
	times *[chunkSlots]uint64 // timed stores only
}

// seq returns the full sequence of slot j.
func (c *chunk) seq(j uint64) uint64 { return c.base + uint64(c.refs[j]-uint32(c.base)) }

// store holds one stream's tuples resident in one shard, appended in sequence
// order and evicted from the tail as the global window watermark passes them.
// It orders eviction, counts the live tuples and bounds their sequences;
// probes never read it per candidate, because an index entry's ref is its
// tuple's sequence, not its slot.
//
// A store comes in two forms. A keyed one keeps each tuple's key beside its
// ref: an eager index (the B+-Tree) removes each evicted entry by key, and a
// timed store keeps the keys beside the event times, which no index holds. A
// keyless one keeps refs only — 4 bytes a tuple — since a lazily pruned index
// already holds every resident's (key, ref) entry, and engine.live reads the
// keys from there.
//
// Slots are addressed by monotone positions [tail, head). Position i lives in
// chunk i>>chunkShift, which sits at ring[(i>>chunkShift)&mask]: the ring holds
// exactly the chunks that overlap [tail, head), doubles when a new chunk would
// not fit, and is empty when the store is. So a store takes memory in
// proportion to what it holds — a shard's share of the window, not the window
// — and no bound on that share is needed.
//
// In timed mode eviction is driven by a timestamp watermark (minimum live
// event time) instead of a sequence one.
type store struct {
	ring  []chunk
	mask  uint64
	free  [maxFree]chunk // emptied chunks kept for reuse; nfree are valid
	nfree int
	keyed bool
	timed bool
	head  uint64 // append position (monotone)
	tail  uint64 // evict position (monotone)
	first uint64 // seq of the first tuple ever appended (valid once head > 0)
	wm    uint64 // highest eviction watermark applied (seq, or minTS when timed)
}

// newStore returns an empty store; a timed one must be keyed.
func newStore(keyed, timed bool) *store { return &store{keyed: keyed, timed: timed} }

// slot returns the chunk holding position i and i's slot in it.
func (s *store) slot(i uint64) (*chunk, uint64) {
	return &s.ring[(i>>chunkShift)&s.mask], i & chunkMask
}

// expired reports whether slot j of c lies below the watermark: its sequence,
// or its event time when timed.
func (c *chunk) expired(j, wm uint64) bool {
	if c.times != nil {
		return c.times[j] < wm
	}
	return c.seq(j) < wm
}

// evict drops tuples below the watermark from the tail — seq < wm, or event
// time < wm in timed mode, where admission order is timestamp order and the
// tail therefore holds the oldest event time — reporting each dropped
// (key, ref) pair so eager-delete indexes can remove it; onEvict must be nil
// unless the store is keyed. Each chunk the tail leaves, and the last one when
// the store empties, is released.
func (s *store) evict(wm uint64, onEvict func(p kv.Pair)) {
	for s.tail < s.head {
		c, j := s.slot(s.tail)
		if !c.expired(j, wm) {
			break
		}
		if onEvict != nil {
			onEvict(kv.Pair{Key: c.keys[j], Ref: c.refs[j]})
		}
		s.tail++
		if s.tail&chunkMask == 0 || s.tail == s.head {
			s.release(c)
		}
	}
	if wm > s.wm {
		s.wm = wm
	}
}

// release takes chunk c off the ring, keeping it for reuse while the free
// list has room.
func (s *store) release(c *chunk) {
	if s.nfree < maxFree {
		s.free[s.nfree] = *c
		s.nfree++
	}
	*c = chunk{}
}

// liveFrom returns the position of the oldest tuple at or above the
// watermark, or head when there is none. Positions are in eviction order, the
// order evict relies on, so the live tuples are exactly [liveFrom(wm), head).
func (s *store) liveFrom(wm uint64) uint64 {
	i := s.tail
	for i < s.head {
		if c, j := s.slot(i); !c.expired(j, wm) {
			break
		}
		i++
	}
	return i
}

// append stores a tuple (key is kept by keyed stores only, ts by timed ones).
// Sequences must arrive in increasing order.
func (s *store) append(key uint32, seq, ts uint64) {
	if s.head == 0 {
		s.first = seq
	}
	if s.head&chunkMask == 0 || s.tail == s.head {
		s.open(seq)
	}
	c, j := s.slot(s.head)
	if seq-c.base > math.MaxUint32 {
		s.rebase(c, seq)
	}
	c.refs[j] = uint32(seq)
	if c.keys != nil {
		c.keys[j] = key
	}
	if c.times != nil {
		c.times[j] = ts
	}
	s.head++
}

// open installs a chunk for position head, whose first tuple is seq: one
// from the free list, or a new one. The ring doubles first if the chunks
// overlapping [tail, head] would not fit it.
func (s *store) open(seq uint64) {
	n := s.head >> chunkShift
	held := uint64(0)
	if s.tail < s.head {
		held = n - s.tail>>chunkShift
	}
	if held >= uint64(len(s.ring)) {
		s.grow()
	}
	var c chunk
	if s.nfree > 0 {
		s.nfree--
		c, s.free[s.nfree] = s.free[s.nfree], chunk{}
	} else {
		c.refs = new([chunkSlots]uint32)
		if s.keyed {
			c.keys = new([chunkSlots]uint32)
		}
		if s.timed {
			c.times = new([chunkSlots]uint64)
		}
	}
	c.base = seq
	s.ring[n&s.mask] = c
}

// grow doubles the ring, moving every chunk that overlaps [tail, head).
func (s *store) grow() {
	ring := make([]chunk, max(2*len(s.ring), 1))
	mask := uint64(len(ring) - 1)
	if s.tail < s.head {
		for n := s.tail >> chunkShift; n <= (s.head-1)>>chunkShift; n++ {
			ring[n&mask] = s.ring[n&s.mask]
		}
	}
	s.ring, s.mask = ring, mask
}

// rebase moves the head chunk's base up to its oldest resident so that seq
// — more than 2^32 past the old base — can join it. Every resident stays
// exact, since they all lie between the new base and seq. If seq is 2^32 or
// more past that oldest resident, the store's residents could never be
// compared in 32-bit arithmetic: panic, as span does.
func (s *store) rebase(c *chunk, seq uint64) {
	c.base = c.seq(max(s.tail, s.head&^chunkMask) & chunkMask)
	if seq-c.base > math.MaxUint32 {
		panic(spanOverflow)
	}
}

// seqAt returns the sequence stored at position i, which must be resident.
func (s *store) seqAt(i uint64) uint64 {
	c, j := s.slot(i)
	return c.seq(j)
}

// at returns the tuple stored at position i, which must be resident; key is
// zero unless the store is keyed, ts zero unless it is timed.
func (s *store) at(i uint64) (key uint32, seq, ts uint64) {
	c, j := s.slot(i)
	if c.keys != nil {
		key = c.keys[j]
	}
	if c.times != nil {
		ts = c.times[j]
	}
	return key, c.seq(j), ts
}

// holds reports whether the store's watermark is wm and its residents are
// exactly tuples, in order. A sequence names one tuple of its stream, so
// comparing sequences is enough.
func (s *store) holds(wm uint64, tuples []wal.Tuple) bool {
	if s.wm != wm || s.head-s.tail != uint64(len(tuples)) {
		return false
	}
	for i, t := range tuples {
		if s.seqAt(s.tail+uint64(i)) != t.Seq {
			return false
		}
	}
	return true
}

// span returns how far below hi the resident tuples reach: every stored
// sequence lies in [hi-span, hi) and — positions being in sequence order —
// every evicted one below it. Zero when the store is empty. hi must exceed
// every stored sequence; a range the 32-bit ref arithmetic cannot cover
// panics rather than corrupt results.
func (s *store) span(hi uint64) uint32 {
	if s.tail == s.head {
		return 0
	}
	n := hi - s.seqAt(s.tail)
	if n > maxSpan {
		panic(spanOverflow)
	}
	return uint32(n)
}
