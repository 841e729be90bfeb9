package main

import (
	"sync/atomic"
	"time"

	"pimtree"
)

// mixMatch hashes one match identity to 64 bits; checksums are sums of these,
// so they do not depend on delivery order.
func mixMatch(m pimtree.Match) uint64 {
	h := (m.ProbeSeq<<1|uint64(m.ProbeStream&1))*0x9E3779B97F4A7C15 ^ m.MatchSeq*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>32
}

// tally is a match count with its order-independent checksum.
type tally struct {
	n   uint64
	sum uint64
}

func (t *tally) add(h uint64) { t.n++; t.sum += h }

// collector receives every delivered match: from Config.OnMatch in process,
// from the client's reader goroutine over the wire. The engine delivers
// matches one at a time, so the plain fields need no lock; the harness reads
// them only after a Drain.
type collector struct {
	all tally
	// pre covers matches whose probing tuple lies in the verification prefix
	// (per-stream sequence below prefix[stream]).
	prefix [2]uint64
	pre    tally
	// Probes of the prefix with seq&sampleMask == sampleOff keep their
	// matches for the brute-force check.
	sampleMask, sampleOff uint64
	sampled               []pimtree.Match

	// Latency sampling, switched on for the paced phase. tags[s][seq-base[s]]
	// is the scheduled send offset of the batch holding that probe; the
	// generator publishes each batch's tags with ready.Store before pushing
	// it and a reader on another goroutine loads ready before indexing.
	latOn    atomic.Bool
	ready    atomic.Int64
	start    time.Time
	base     [2]uint64
	tags     [2][]int64
	lat      []int64 // ns from scheduled send to delivery
	untagged uint64  // matches whose probe has no tag
	overflow uint64  // samples beyond cap(lat), counted and dropped

	// With a tracer, every 256th callback is recorded as a span.
	tr    *tracer
	calls uint64
}

// engineMatch is the Config.OnMatch callback.
func (c *collector) engineMatch(m pimtree.Match) {
	at := int64(-1)
	if c.latOn.Load() {
		at = int64(time.Since(c.start))
	}
	if c.tr == nil {
		c.record(m, at)
		return
	}
	if c.calls++; c.calls&255 != 0 {
		c.record(m, at)
		return
	}
	id := c.tr.begin("harness.on_match", -1, -1)
	c.record(m, at)
	c.tr.end(id)
}

// record accounts one match delivered at offset at (ns since start; negative
// when latency is not being sampled).
func (c *collector) record(m pimtree.Match, at int64) {
	h := mixMatch(m)
	c.all.add(h)
	s := m.ProbeStream & 1
	if m.ProbeSeq < c.prefix[s] {
		c.pre.add(h)
		if m.ProbeSeq&c.sampleMask == c.sampleOff {
			c.sampled = append(c.sampled, m)
		}
	}
	if at < 0 {
		return
	}
	i := m.ProbeSeq - c.base[s] // wraps to a huge index for probes before base
	if i >= uint64(len(c.tags[s])) {
		c.untagged++
		return
	}
	if len(c.lat) == cap(c.lat) {
		c.overflow++
		return
	}
	c.lat = append(c.lat, at-c.tags[s][i])
}
