package main

import (
	"slices"

	"pimtree"
)

// rng is splitmix64. The harness owns its generator so that a seed fixes the
// input on every commit, whatever the library's sources do.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shuffleBlock is the granularity of event-time disorder: timestamps are
// shuffled within blocks of this many arrivals, so every multiple of it is a
// clean cut (all earlier arrivals are older than all later ones). Drain
// flushes the reorder buffer and makes anything older late, so every phase
// boundary of a timed workload must sit on a clean cut.
const shuffleBlock = 4096

// pool is the pre-generated input, replayed cyclically by a cursor.
type pool struct {
	arr []pimtree.Arrival
	// rank[i] is the per-stream sequence number the engine assigns arr[i]
	// within one replay cycle: the arrival rank for count windows, the
	// event-time rank for timed ones (the reorder buffer releases in
	// timestamp order).
	rank []uint32
	cnt  [2]uint64 // arrivals per stream in one cycle
	span uint64    // event time covered by one cycle; 0 for count windows
}

// uniformPool draws n arrivals, 50/50 over the two streams, with keys uniform
// over the whole uint32 domain — so the default equal-width RangePartitioner
// is balanced, unlike pimtree.UniformSource whose keys stop at 2^31.
func uniformPool(seed uint64, n int) *pool {
	r := rng(seed)
	p := &pool{arr: make([]pimtree.Arrival, n), rank: make([]uint32, n)}
	for i := range p.arr {
		v := r.next()
		s := pimtree.StreamID(v & 1)
		p.arr[i] = pimtree.Arrival{Stream: s, Key: uint32(v >> 32)}
		p.rank[i] = uint32(p.cnt[s])
		p.cnt[s]++
	}
	return p
}

// hotBandPool draws n timed arrivals whose keys fall in a band one eighth of
// the domain wide that sweeps the domain once per cycle. Event times grow by
// U[1, 2*gap-1] per arrival and are then shuffled within slack, block by
// block (see shuffleBlock). n must be a multiple of shuffleBlock.
func hotBandPool(seed uint64, n int, gap, slack uint64) *pool {
	r := rng(seed)
	p := &pool{arr: make([]pimtree.Arrival, n), rank: make([]uint32, n)}
	ts := uint64(0)
	for i := range p.arr {
		v := r.next()
		s := pimtree.StreamID(v & 1)
		centre := uint32(uint64(i) << 32 / uint64(n))
		ts += 1 + r.next()%(2*gap-1)
		p.arr[i] = pimtree.Arrival{Stream: s, Key: centre + uint32(v>>35), TS: ts}
		p.rank[i] = uint32(p.cnt[s])
		p.cnt[s]++
	}
	p.span = ts + gap

	type slot struct {
		due uint64
		idx int
	}
	order := make([]slot, shuffleBlock)
	arr := make([]pimtree.Arrival, shuffleBlock)
	rank := make([]uint32, shuffleBlock)
	for lo := 0; lo < n; lo += shuffleBlock {
		for j := range order {
			order[j] = slot{due: p.arr[lo+j].TS + r.next()%(slack+1), idx: lo + j}
		}
		slices.SortStableFunc(order, func(a, b slot) int {
			switch {
			case a.due < b.due:
				return -1
			case a.due > b.due:
				return 1
			}
			return 0
		})
		for j, o := range order {
			arr[j], rank[j] = p.arr[o.idx], p.rank[o.idx]
		}
		copy(p.arr[lo:], arr)
		copy(p.rank[lo:], rank)
	}
	return p
}

// digest folds the pool into 64 bits (order-sensitive), for the
// same-seed-same-input checks.
func (p *pool) digest() uint64 {
	h := uint64(len(p.arr))
	for _, a := range p.arr {
		h = (h ^ uint64(a.Key) ^ uint64(a.Stream)<<32 ^ a.TS<<33) * 0x100000001B3
	}
	return h
}

// cursor replays a pool from its start, wrapping around; event times keep
// growing across cycles.
type cursor struct {
	p     *pool
	pos   int
	cycle uint64
}

// fill writes the next len(dst) arrivals into dst and, when seqs is not nil,
// the per-stream engine sequence each of them will be assigned.
func (c *cursor) fill(dst []pimtree.Arrival, seqs []uint64) {
	p := c.p
	for i := range dst {
		a := p.arr[c.pos]
		if seqs != nil {
			seqs[i] = c.cycle*p.cnt[a.Stream] + uint64(p.rank[c.pos])
		}
		a.TS += c.cycle * p.span
		dst[i] = a
		if c.pos++; c.pos == len(p.arr) {
			c.pos = 0
			c.cycle++
		}
	}
}

// skip advances the cursor by n arrivals without producing them.
func (c *cursor) skip(n int) {
	c.pos += n
	c.cycle += uint64(c.pos / len(c.p.arr))
	c.pos %= len(c.p.arr)
}

// sent returns how many arrivals of each stream the cursor has handed out.
// It is exact only on a clean cut of a timed pool (always, for count pools).
func (c *cursor) sent() [2]uint64 {
	out := [2]uint64{c.cycle * c.p.cnt[0], c.cycle * c.p.cnt[1]}
	for _, a := range c.p.arr[:c.pos] {
		out[a.Stream]++
	}
	return out
}
