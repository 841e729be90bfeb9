package join

import (
	"time"

	"pimtree/internal/kv"
	"pimtree/internal/stream"
	"pimtree/internal/window"
)

// Streaming is the incremental form of the single-threaded IBWJ: tuples are
// pushed one at a time and matches are reported synchronously, which is the
// shape a downstream stream-processing operator embeds (the public package
// pimtree wraps it). paper.IBWJSerial runs the same engine over a
// pre-materialized arrival slice.
type Streaming struct {
	cfg   SerialConfig
	rings [2]*window.Ring
	idxs  [2]Index
	lives [2]func(kv.Pair) bool // per-stream merge filters, bound once
	locs  Locator               // PushBatch's descents, found ahead

	// Probe state for the zero-allocation hot path: the per-push probe
	// parameters live in struct fields and the index callback is built once
	// here, so Push never materializes an escaping closure. (A closure
	// literal passed through the Index interface is conservatively
	// heap-allocated on every call; a cached func value is not.)
	probeEmit   func([]kv.Pair) bool
	probeOpp    *window.Ring
	probeStream uint8
	probeSeq    uint64
	probeHits   int
}

// NewStreaming builds an incremental IBWJ engine from the serial config.
func NewStreaming(cfg SerialConfig) *Streaming {
	wr, ws := cfg.Windows()
	r := NewIndex(cfg.Index, wr, cfg.PIM)
	s := r
	if !cfg.Self {
		s = NewIndex(cfg.Index, ws, cfg.PIM)
	}
	return NewStreamingOver(cfg, r, s)
}

// NewStreamingOver builds the engine of NewStreaming over the given R and S
// indexes, each built for its window's length; a self-join uses r alone.
// cfg.Index and cfg.PIM are not read.
func NewStreamingOver(cfg SerialConfig, r, s Index) *Streaming {
	wr, ws := cfg.Windows()
	e := &Streaming{cfg: cfg}
	e.idxs[0] = r
	e.rings[0] = newRing(wr, r)
	e.lives[0] = liveIn(e.rings[0])
	if cfg.Self {
		e.rings[1], e.idxs[1], e.lives[1] = e.rings[0], e.idxs[0], e.lives[0]
	} else {
		e.idxs[1] = s
		e.rings[1] = newRing(ws, s)
		e.lives[1] = liveIn(e.rings[1])
	}
	e.locs = NewLocator(e.idxs[0], cfg.Self)
	e.probeEmit = e.emitPairs
	return e
}

// emitPairs consumes one contiguous candidate run from the probed index,
// resolving each entry against the opposite window. It is the single cached
// callback behind every Push probe (see the probe fields on Streaming).
func (s *Streaming) emitPairs(ps []kv.Pair) bool {
	for _, p := range ps {
		if _, seq, live := s.probeOpp.Resolve(p.Ref); live {
			s.probeHits++
			if s.cfg.Sink != nil {
				s.cfg.Sink(s.probeStream, s.probeSeq, seq)
			}
		}
	}
	return true
}

// Push processes one arrival through the three IBWJ steps and returns the
// number of matches it produced. The configured sink (if any) observes each
// match before Push returns, preserving arrival order.
func (s *Streaming) Push(a stream.Arrival) (matches int) {
	return s.push(a, Located{}, Located{})
}

// PushBatch is Push over every arrival in order, with the same matches in
// the same order. A PIM-Tree's TS descents are found ahead, LocateChunk
// arrivals at a time: each chunk's probe and insert keys are located
// together in each index, then the arrivals run with their positions.
func (s *Streaming) PushBatch(as []stream.Arrival) (matches int) {
	for len(as) > 0 {
		chunk := as[:min(len(as), LocateChunk)]
		as = as[len(chunk):]
		for _, a := range chunk {
			lo, _ := s.cfg.Band.Range(a.Key)
			s.locs.AddProbe(s.probed(a.Stream), lo)
			s.locs.AddInsert(a.Stream, a.Key)
		}
		s.locs.Locate(&s.idxs)
		for _, a := range chunk {
			matches += s.push(a, s.locs.Probe(s.probed(a.Stream)), s.locs.Insert(a.Stream))
		}
		s.locs.Reset()
	}
	return matches
}

// probed returns the stream an arrival of stream id probes.
func (s *Streaming) probed(id uint8) uint8 {
	if s.cfg.Self {
		return id
	}
	return opposite(id)
}

// push is Push with the probe's and the insert's TS descents located ahead
// (or the zero Located, to descend here).
func (s *Streaming) push(a stream.Arrival, probeAt, insertAt Located) (matches int) {
	own, ownIdx := s.rings[a.Stream], s.idxs[a.Stream]
	oppID := s.probed(a.Stream)
	opp, oppIdx := s.rings[oppID], s.idxs[oppID]
	lo, hi := s.cfg.Band.Range(a.Key)

	s.probeOpp = opp
	s.probeStream = a.Stream
	s.probeSeq = own.Head()
	s.probeHits = 0
	probeAt.QueryPairs(oppIdx, lo, hi, s.probeEmit)
	matches = s.probeHits

	ref, _, expired, hasExpired := own.Append(a.Key)
	if hasExpired {
		ownIdx.Remove(expired)
	}
	insertAt.Insert(ownIdx, kv.Pair{Key: a.Key, Ref: ref})
	ownIdx.Maintain(s.lives[a.Stream], own.Count())
	return matches
}

// Merges reports merge statistics accumulated by the indexes.
func (s *Streaming) Merges() (int, time.Duration) {
	m1, t1 := s.idxs[0].Merges()
	if s.cfg.Self {
		return m1, t1
	}
	m2, t2 := s.idxs[1].Merges()
	return m1 + m2, t1 + t2
}

// WindowCount returns the number of live tuples in a stream's window.
func (s *Streaming) WindowCount(streamID uint8) int {
	if s.cfg.Self {
		streamID = 0
	}
	return s.rings[streamID].Count()
}
