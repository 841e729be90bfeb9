package join

import (
	"time"

	"pimtree/internal/core"
	"pimtree/internal/kv"
	"pimtree/internal/metrics"
	"pimtree/internal/stream"
	"pimtree/internal/window"
)

// SerialConfig configures the single-threaded join drivers.
type SerialConfig struct {
	WR, WS int  // window lengths (WS ignored for self-join)
	Band   Band // band predicate
	Self   bool // self-join: one stream, one window, one index

	Index IndexKind // IBWJ index choice
	// ChainLength is L for the chained-index kinds (default 2).
	ChainLength int
	// PIM configures the two-stage indexes, PIM-Tree and IM-Tree; the
	// IM-Tree ignores InsertionDepth (it is the PIM-Tree at depth 0).
	PIM core.PIMTreeConfig

	Sink MatchSink // optional result sink
}

// newIndex builds the configured index for a window of length w.
func (c SerialConfig) newIndex(w int) Index {
	return NewIndex(c.Index, w, c.ChainLength, c.PIM)
}

// newRing builds the window of length w for idx: keyed only for an eager
// index, the one reader of Append's expired pair.
func newRing(w int, idx Index) *window.Ring {
	if idx.Eager() {
		return window.NewRing(w)
	}
	return window.NewKeylessRing(w)
}

// liveIn binds a ring's liveness test as an index merge filter. It is a
// method value, not a closure returned by a helper: a closure built inside
// an inlined helper is compiled without inlining Ring.Live, which costs a
// call per merged element.
func liveIn(r *window.Ring) func(kv.Pair) bool { return ringLive{r}.live }

type ringLive struct{ r *window.Ring }

func (l ringLive) live(p kv.Pair) bool { return l.r.Live(p.Ref) }

func (c SerialConfig) windows() (wr, ws int) {
	wr = c.WR
	if wr <= 0 {
		panic("join: WR must be positive")
	}
	ws = c.WS
	if c.Self {
		ws = wr
	}
	if ws <= 0 {
		panic("join: WS must be positive")
	}
	return wr, ws
}

// NLWJ runs the single-threaded nested-loop window join over the arrival
// sequence: each tuple is compared against every live tuple of the opposite
// window (the baseline of Figure 8a).
func NLWJ(arrivals []stream.Arrival, cfg SerialConfig) Stats {
	wr, ws := cfg.windows()
	rings := [2]*window.Ring{window.NewRing(wr), window.NewRing(ws)}
	if cfg.Self {
		rings[1] = rings[0]
	}
	var matches uint64
	start := time.Now()
	for _, a := range arrivals {
		own := rings[a.Stream]
		opp := rings[opposite(a.Stream)]
		if cfg.Self {
			opp = own
		}
		probeSeq := own.Head()
		opp.Scan(func(key uint32, seq uint64) bool {
			if cfg.Band.Matches(a.Key, key) {
				matches++
				if cfg.Sink != nil {
					cfg.Sink(a.Stream, probeSeq, seq)
				}
			}
			return true
		})
		own.Append(a.Key)
	}
	return Stats{Tuples: len(arrivals), Matches: matches, Elapsed: time.Since(start)}
}

// IBWJSerial runs the single-threaded index-based window join of Section 2.2
// over the arrival sequence, using the configured index on both streams. It
// is the batch driver over the Streaming engine.
func IBWJSerial(arrivals []stream.Arrival, cfg SerialConfig) Stats {
	eng := NewStreaming(cfg)
	var matches uint64
	start := time.Now()
	for _, a := range arrivals {
		matches += uint64(eng.Push(a))
	}
	elapsed := time.Since(start)
	merges, mergeTime := eng.Merges()
	return Stats{
		Tuples:    len(arrivals),
		Matches:   matches,
		Elapsed:   elapsed,
		Merges:    merges,
		MergeTime: mergeTime,
	}
}

// StepCosts runs a single-threaded IBWJ while attributing wall time to the
// five per-tuple steps of Figure 9b. The search/scan split is measured by
// timing the index descent to the range start (a zero-width probe) apart
// from the matching-range walk.
func StepCosts(arrivals []stream.Arrival, cfg SerialConfig) *metrics.StepTimer {
	wr, ws := cfg.windows()
	idxs := [2]Index{cfg.newIndex(wr), cfg.newIndex(ws)}
	rings := [2]*window.Ring{newRing(wr, idxs[0]), newRing(ws, idxs[1])}
	lives := [2]func(kv.Pair) bool{liveIn(rings[0]), liveIn(rings[1])}
	if cfg.Self {
		rings[1], idxs[1], lives[1] = rings[0], idxs[0], lives[0]
	}
	st := &metrics.StepTimer{}
	for _, a := range arrivals {
		own, ownIdx := rings[a.Stream], idxs[a.Stream]
		oppID := opposite(a.Stream)
		if cfg.Self {
			oppID = a.Stream
		}
		opp, oppIdx := rings[oppID], idxs[oppID]
		lo, hi := cfg.Band.Range(a.Key)

		// Search: descend to the first matching position without walking
		// the range (emit stops immediately).
		t0 := time.Now()
		oppIdx.Query(lo, hi, func(kv.Pair) bool { return false })
		st.Add(metrics.StepSearch, time.Since(t0))

		// Scan: full range walk with window filtering. Each walk pays the
		// descent again; the aggregate descent time is subtracted from the
		// scan accumulator after the loop.
		t0 = time.Now()
		oppIdx.Query(lo, hi, func(p kv.Pair) bool {
			opp.Resolve(p.Ref)
			return true
		})
		st.Add(metrics.StepScan, time.Since(t0))

		// Only eager-delete indexes pay a per-tuple delete; timing the
		// no-op Remove of delta-merge indexes would charge timer overhead.
		ref, _, expired, hasExpired := own.Append(a.Key)
		if hasExpired {
			if ownIdx.Eager() {
				t0 = time.Now()
				ownIdx.Remove(expired)
				st.Add(metrics.StepDelete, time.Since(t0))
			} else {
				ownIdx.Remove(expired)
			}
		}
		t0 = time.Now()
		ownIdx.Insert(kv.Pair{Key: a.Key, Ref: ref})
		st.Add(metrics.StepInsert, time.Since(t0))

		// Only delta-merge indexes have a maintenance step worth timing; a
		// timed no-op would charge timer overhead to the merge bar.
		if ownIdx.Eager() {
			ownIdx.Maintain(lives[a.Stream], own.Count())
		} else {
			t0 = time.Now()
			ownIdx.Maintain(lives[a.Stream], own.Count())
			st.Add(metrics.StepMerge, time.Since(t0))
		}
		st.Tick()
	}
	// The scan accumulator included a second descent per tuple; remove it.
	st.Add(metrics.StepScan, -st.Total(metrics.StepSearch))
	return st
}
