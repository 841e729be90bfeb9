package shard

import (
	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// Sequencer performs the global sequencing every tier of the sharded join
// shares: per-stream sequence heads, the band range, the probe's [TE, TL)
// window captured at admission, and the insert's eviction watermark. Router
// runs one in front of its local shards and cluster.Frontend one in front of
// its nodes; a Member applies what a remote Sequencer already decided.
// Exactness rests on it: ops reach every engine in the order Next was called,
// and liveness is filtered by the bounds captured here, never by an
// engine-local clock. Single goroutine.
type Sequencer struct {
	heads [2]uint64 // per-stream global sequence counters
	wlen  [2]uint64 // count-window lengths (unused for time windows)
	self  bool
	band  join.Band
	span  uint64 // time-window duration; 0 selects count windows
}

// NewSequencer returns a sequencer for count windows of wr/ws tuples, or —
// when span is positive — for time windows of that duration.
func NewSequencer(wr, ws int, self bool, band join.Band, span uint64) Sequencer {
	if self {
		ws = wr
	}
	return Sequencer{wlen: [2]uint64{uint64(wr), uint64(ws)}, self: self, band: band, span: span}
}

// Next sequences one arrival of stream s: a probe of store slot probed over
// keys [lo, hi] and window [te, tl), then an insert into slot own at seq with
// eviction watermark wm. tl excludes tuples sequenced after this one —
// including, for self-joins, the tuple itself.
//
// Count windows: [te, tl) are global sequences of the probed stream and wm is
// the first sequence of own still live. Time windows: tl still bounds by
// sequence (tuples admitted before this one — admission order is timestamp
// order), while te and wm are both the oldest live event time relative to ts
// (now - ts < span, as in the serial time join).
//
// The results are scalars, not a struct: the compiler keeps a struct of more
// than four fields in memory, and on the router's per-arrival path that
// round trip measured ~5 % of a sharded run.
func (q *Sequencer) Next(s uint8, key uint32, ts uint64) (own, probed uint8, lo, hi uint32, te, tl, seq, wm uint64) {
	own = sid(q.self, s)
	probed = own
	if !q.self {
		probed = opposite(s)
	}
	lo, hi = q.band.Range(key)
	tl = q.heads[probed]
	seq = q.heads[own]
	q.heads[own]++
	if q.span > 0 {
		if ts >= q.span {
			te = ts - q.span + 1
		}
		return own, probed, lo, hi, te, tl, seq, te
	}
	if tl > q.wlen[probed] {
		te = tl - q.wlen[probed]
	}
	if seq+1 > q.wlen[own] {
		wm = seq + 1 - q.wlen[own]
	}
	return own, probed, lo, hi, te, tl, seq, wm
}

// sid folds a stream id onto its store slot (self-joins use slot 0 only).
func sid(self bool, s uint8) uint8 {
	if self {
		return 0
	}
	return s
}

// storeSlots is how many store slots hold tuples: slot 0 only for self-joins
// (slot 1 is an alias), both otherwise.
func storeSlots(self bool) int {
	if self {
		return 1
	}
	return 2
}

// opposite returns the other stream id.
func opposite(s uint8) uint8 {
	if s == stream.StreamR {
		return stream.StreamS
	}
	return stream.StreamR
}

// Clamp keeps a partitioner result inside a lane array of length k.
func Clamp(s, k int) int {
	return max(0, min(s, k-1))
}
