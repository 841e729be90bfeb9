package shard

import (
	"math"

	"pimtree/internal/kv"
	"pimtree/internal/wal"
)

// A store keeps its slots in fixed chunks of chunkSlots, one array per column.
// A chunk's gaps are 4 KiB, its keys 16 KiB and its times 32 KiB, every one a
// small-object size class, so a chunk costs what its slots hold and no more.
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

// chunk is chunkSlots consecutive store slots. A slot is the tuple's gap, its
// sequence minus the previous resident's; in keyed stores also its key, and
// in timed stores also its event timestamp. A gap of 1–255 is its own byte;
// 0 marks an escape, whose full gap waits in the store's escape FIFO. The
// tail slot's gap is never read: the store keeps the tail's sequence whole.
type chunk struct {
	gaps  *[chunkSlots]uint8
	keys  *[chunkSlots]uint32 // keyed stores only
	times *[chunkSlots]uint64 // timed stores only
}

// store holds one stream's tuples resident in one shard, appended in sequence
// order and evicted from the tail as the global window watermark passes them.
// It orders eviction, counts the live tuples and bounds their sequences;
// probes never read it per candidate, because an index entry's ref is its
// tuple's sequence, not its slot.
//
// A store comes in two forms. A keyed one keeps each tuple's key beside its
// gap: an eager index (the B+-Tree) removes each evicted entry by key, and a
// timed store keeps the keys beside the event times, which no index holds. A
// keyless one keeps gaps only — 1 byte a tuple — since a lazily pruned index
// already holds every resident's (key, ref) entry, and engine.live reads the
// keys from there.
//
// No reader needs a resident at random: eviction, liveFrom, holds and
// engine.live walk the residents in order from the tail (see cursor), adding
// up gaps from the cached tail sequence, and span and maintainSlot read only
// the cached oldest and newest sequences.
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
	// oldest and newest are the sequences at tail and head-1, valid while the
	// store is not empty.
	oldest, newest uint64
	// esc holds the full gaps of the escaped slots in (tail, head), in
	// position order from esc[escAt]. Two residents of a store are never 2^32
	// apart (append panics first), so a gap fits 32 bits.
	esc   []uint32
	escAt int
}

// newStore returns an empty store; a timed one must be keyed.
func newStore(keyed, timed bool) *store { return &store{keyed: keyed, timed: timed} }

// slot returns the chunk holding position i and i's slot in it.
func (s *store) slot(i uint64) (*chunk, uint64) {
	return &s.ring[(i>>chunkShift)&s.mask], i & chunkMask
}

// cursor is one step of a walk over a store's residents from the tail: a
// position, the sequence stored there (valid while pos < head), and the
// escape FIFO index of the next escaped gap past pos.
type cursor struct {
	pos, seq uint64
	esc      int
}

// begin returns a cursor at the tail.
func (s *store) begin() cursor { return cursor{s.tail, s.oldest, s.escAt} }

// next moves c to the following position, adding its gap to the sequence.
func (s *store) next(c *cursor) {
	c.pos++
	if c.pos == s.head {
		return
	}
	ch, j := s.slot(c.pos)
	g := uint64(ch.gaps[j])
	if g == 0 {
		g = uint64(s.esc[c.esc])
		c.esc++
	}
	c.seq += g
}

// expired reports whether the resident at c lies below the watermark: its
// sequence, or its event time when timed.
func (s *store) expired(c cursor, wm uint64) bool {
	if s.timed {
		ch, j := s.slot(c.pos)
		return ch.times[j] < wm
	}
	return c.seq < wm
}

// evict drops tuples below the watermark from the tail — seq < wm, or event
// time < wm in timed mode, where admission order is timestamp order and the
// tail therefore holds the oldest event time — reporting each dropped
// (key, ref) pair so eager-delete indexes can remove it; onEvict must be nil
// unless the store is keyed. Each chunk the tail leaves, and the last one when
// the store empties, is released.
func (s *store) evict(wm uint64, onEvict func(p kv.Pair)) {
	c := s.begin()
	for c.pos < s.head && s.expired(c, wm) {
		ch, j := s.slot(c.pos)
		if onEvict != nil {
			onEvict(kv.Pair{Key: ch.keys[j], Ref: uint32(c.seq)})
		}
		s.next(&c)
		if c.pos&chunkMask == 0 || c.pos == s.head {
			s.release(ch)
		}
	}
	s.tail, s.oldest, s.escAt = c.pos, c.seq, c.esc
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

// liveFrom returns a cursor at the oldest tuple at or above the watermark, or
// at head when there is none. Positions are in eviction order, the order
// evict relies on, so the live tuples are exactly [liveFrom(wm).pos, head).
func (s *store) liveFrom(wm uint64) cursor {
	c := s.begin()
	for c.pos < s.head && s.expired(c, wm) {
		s.next(&c)
	}
	return c
}

// append stores a tuple (key is kept by keyed stores only, ts by timed ones).
// Sequences must arrive in increasing order. A tuple 2^32 or more past the
// newest resident could never be compared with it in 32-bit arithmetic:
// panic, as span does.
func (s *store) append(key uint32, seq, ts uint64) {
	empty := s.tail == s.head
	gap := seq - s.newest
	if !empty && gap > math.MaxUint32 {
		panic(spanOverflow)
	}
	if s.head == 0 {
		s.first = seq
	}
	if s.head&chunkMask == 0 || empty {
		s.open()
	}
	c, j := s.slot(s.head)
	switch {
	case empty:
		s.oldest = seq // the tail's gap is never read
	case gap < 1<<8:
		c.gaps[j] = uint8(gap)
	default:
		c.gaps[j] = 0
		s.escape(uint32(gap))
	}
	if c.keys != nil {
		c.keys[j] = key
	}
	if c.times != nil {
		c.times[j] = ts
	}
	s.newest = seq
	s.head++
}

// escape queues the full gap of the slot being appended. A full FIFO first
// moves its unread gaps down over the ones the tail has passed, so it grows
// only when every gap it holds is a resident's.
func (s *store) escape(gap uint32) {
	if len(s.esc) == cap(s.esc) && s.escAt > 0 {
		s.esc = s.esc[:copy(s.esc, s.esc[s.escAt:])]
		s.escAt = 0
	}
	s.esc = append(s.esc, gap)
}

// open installs a chunk for position head: one from the free list, or a new
// one. The ring doubles first if the chunks overlapping [tail, head] would
// not fit it.
func (s *store) open() {
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
		c.gaps = new([chunkSlots]uint8)
		if s.keyed {
			c.keys = new([chunkSlots]uint32)
		}
		if s.timed {
			c.times = new([chunkSlots]uint64)
		}
	}
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

// at returns the key and event time stored at position i, which must be
// resident; key is zero unless the store is keyed, ts zero unless it is
// timed. A cursor carries the position's sequence.
func (s *store) at(i uint64) (key uint32, ts uint64) {
	c, j := s.slot(i)
	if c.keys != nil {
		key = c.keys[j]
	}
	if c.times != nil {
		ts = c.times[j]
	}
	return key, ts
}

// holds reports whether the store's watermark is wm and its residents are
// exactly tuples, in order. A sequence names one tuple of its stream, so
// comparing sequences is enough.
func (s *store) holds(wm uint64, tuples []wal.Tuple) bool {
	if s.wm != wm || s.head-s.tail != uint64(len(tuples)) {
		return false
	}
	c := s.begin()
	for _, t := range tuples {
		if c.seq != t.Seq {
			return false
		}
		s.next(&c)
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
	n := hi - s.oldest
	if n > maxSpan {
		panic(spanOverflow)
	}
	return uint32(n)
}
