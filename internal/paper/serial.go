package paper

import (
	"time"

	"pimtree/internal/chainindex"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/stream"
	"pimtree/internal/window"
)

// NLWJ runs the single-threaded nested-loop window join over the arrival
// sequence: each tuple is compared against every live tuple of the opposite
// window (the baseline of Figure 8a, and the tests' correctness oracle).
func NLWJ(arrivals []stream.Arrival, cfg join.SerialConfig) join.Stats {
	wr, ws := cfg.Windows()
	rings := [2]*window.Ring{window.NewRing(wr), window.NewRing(ws)}
	if cfg.Self {
		rings[1] = rings[0]
	}
	var matches uint64
	start := time.Now()
	for _, a := range arrivals {
		own, opp := rings[a.Stream], rings[1-a.Stream] // one ring in a self-join
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
	return join.Stats{Tuples: len(arrivals), Matches: matches, Elapsed: time.Since(start)}
}

// IBWJSerial runs the single-threaded index-based window join of Section 2.2
// over the arrival sequence, using the configured index on both streams. It
// is the batch driver over join.Streaming.
func IBWJSerial(arrivals []stream.Arrival, cfg join.SerialConfig) join.Stats {
	return drive(arrivals, join.NewStreaming(cfg))
}

// IBWJChain is IBWJSerial over the chained index of Section 2.2.2 (Figure
// 8b): variant v with length subindexes per window. cfg.Index and cfg.PIM
// are not read.
func IBWJChain(arrivals []stream.Arrival, cfg join.SerialConfig, v chainindex.Variant, length int) join.Stats {
	wr, ws := cfg.Windows()
	r := newChain(v, length, wr)
	s := r
	if !cfg.Self {
		s = newChain(v, length, ws)
	}
	return drive(arrivals, join.NewStreamingOver(cfg, r, s))
}

// drive pushes every arrival through eng and reports the run.
func drive(arrivals []stream.Arrival, eng *join.Streaming) join.Stats {
	var matches uint64
	start := time.Now()
	for _, a := range arrivals {
		matches += uint64(eng.Push(a))
	}
	elapsed := time.Since(start)
	merges, mergeTime := eng.Merges()
	return join.Stats{
		Tuples:    len(arrivals),
		Matches:   matches,
		Elapsed:   elapsed,
		Merges:    merges,
		MergeTime: mergeTime,
	}
}

// chainIndex adapts the chained index to join.Index: coarse disposal in
// Maintain, by its own insert count against the window length it was built
// for.
type chainIndex struct {
	*chainindex.Chain
	w, seq uint64
}

func newChain(v chainindex.Variant, length, w int) *chainIndex {
	return &chainIndex{Chain: chainindex.New(length, w, v), w: uint64(w)}
}

func (x *chainIndex) Insert(p kv.Pair) {
	x.Chain.Insert(p, x.seq)
	x.seq++
}
func (x *chainIndex) Remove(kv.Pair)               {}
func (x *chainIndex) Merges() (int, time.Duration) { return 0, 0 }
func (x *chainIndex) Eager() bool                  { return false }
func (x *chainIndex) Maintain(func(kv.Pair) bool, int) {
	if x.seq > x.w {
		x.Advance(x.seq - x.w)
	}
}

// StepCosts runs a single-threaded IBWJ while attributing wall time to the
// five per-tuple steps of Figure 9b. It pushes the arrivals through
// join.Streaming over indexes that time their own calls (stepIndex).
func StepCosts(arrivals []stream.Arrival, cfg join.SerialConfig) *StepTimer {
	wr, ws := cfg.Windows()
	st := &StepTimer{}
	r := stepIndex{join.NewIndex(cfg.Index, wr, cfg.PIM), st}
	s := r
	if !cfg.Self {
		s = stepIndex{join.NewIndex(cfg.Index, ws, cfg.PIM), st}
	}
	eng := join.NewStreamingOver(cfg, r, s)
	for _, a := range arrivals {
		eng.Push(a)
		st.Tick()
	}
	// The scan accumulator included a second descent per probe; remove it.
	st.Add(StepScan, -st.Total(StepSearch))
	return st
}

// stepIndex charges the time of each call to its index to one step of
// Figure 9b. The search/scan split is measured by timing the descent to the
// range's first run (which emit refuses) apart from the matching-range
// walk. Only an eager index's Remove and only a delta-merge index's
// Maintain do work worth timing; timing the other's no-op would charge
// timer overhead to the delete or merge bar.
type stepIndex struct {
	join.Index
	st *StepTimer
}

func (x stepIndex) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	t0 := time.Now()
	x.Index.QueryPairs(lo, hi, func([]kv.Pair) bool { return false })
	x.st.Add(StepSearch, time.Since(t0))
	t0 = time.Now()
	stopped := x.Index.QueryPairs(lo, hi, emit)
	x.st.Add(StepScan, time.Since(t0))
	return stopped
}

func (x stepIndex) Insert(p kv.Pair) {
	t0 := time.Now()
	x.Index.Insert(p)
	x.st.Add(StepInsert, time.Since(t0))
}

func (x stepIndex) Remove(p kv.Pair) {
	if !x.Eager() {
		x.Index.Remove(p)
		return
	}
	t0 := time.Now()
	x.Index.Remove(p)
	x.st.Add(StepDelete, time.Since(t0))
}

func (x stepIndex) Maintain(live func(kv.Pair) bool, survivors int) {
	if x.Eager() {
		x.Index.Maintain(live, survivors)
		return
	}
	t0 := time.Now()
	x.Index.Maintain(live, survivors)
	x.st.Add(StepMerge, time.Since(t0))
}
