package join

import (
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/bwtree"
	"pimtree/internal/chainindex"
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
	// IM and PIM configure the two-stage indexes.
	IM  core.IMTreeConfig
	PIM core.PIMTreeConfig

	Sink MatchSink // optional result sink
}

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

// serialIndex is the per-stream index behaviour the serial IBWJ loop needs.
// Remove is a no-op for delta-merge indexes (their disposal is batched in
// Maintain), mirroring step 2 of Equations 5 and 6.
type serialIndex interface {
	Insert(p kv.Pair)
	Remove(p kv.Pair)
	Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool)
	// QueryPairs is the columnar form of Query: in-range elements arrive as
	// contiguous []kv.Pair runs aliasing index-owned storage, valid only
	// during the emit call. The hot probe loops use it so the inner band
	// scan runs branch-light over contiguous memory.
	QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool)
	Maintain(win *window.Ring)
	Merges() (int, time.Duration)
}

// btreeIndex adapts the classic B+-Tree (Section 2.2.1: eager per-tuple
// deletes, no maintenance).
type btreeIndex struct{ t *btree.Tree }

func (x *btreeIndex) Insert(p kv.Pair) { x.t.Insert(p) }
func (x *btreeIndex) Remove(p kv.Pair) { x.t.Delete(p) }
func (x *btreeIndex) Query(lo, hi uint32, emit func(kv.Pair) bool) bool {
	return x.t.Query(lo, hi, emit)
}
func (x *btreeIndex) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	return x.t.QueryPairs(lo, hi, emit)
}
func (x *btreeIndex) Maintain(*window.Ring)        {}
func (x *btreeIndex) Merges() (int, time.Duration) { return 0, 0 }

// bwIndex adapts the Bw-Tree (eager deletes like B+-Tree).
type bwIndex struct{ t *bwtree.Tree }

func (x *bwIndex) Insert(p kv.Pair) { x.t.Insert(p) }
func (x *bwIndex) Remove(p kv.Pair) { x.t.Delete(p) }
func (x *bwIndex) Query(lo, hi uint32, emit func(kv.Pair) bool) bool {
	return x.t.Query(lo, hi, emit)
}
func (x *bwIndex) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	return x.t.QueryPairs(lo, hi, emit)
}
func (x *bwIndex) Maintain(*window.Ring)        {}
func (x *bwIndex) Merges() (int, time.Duration) { return 0, 0 }

// chainIdx adapts the chained index (coarse disposal in Maintain).
type chainIdx struct {
	t   *chainindex.Chain
	seq uint64
}

func (x *chainIdx) Insert(p kv.Pair) {
	x.t.Insert(p, x.seq)
	x.seq++
}
func (x *chainIdx) Remove(kv.Pair) {}
func (x *chainIdx) Query(lo, hi uint32, emit func(kv.Pair) bool) bool {
	return x.t.Query(lo, hi, emit)
}
func (x *chainIdx) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	return x.t.QueryPairs(lo, hi, emit)
}
func (x *chainIdx) Merges() (int, time.Duration) { return 0, 0 }
func (x *chainIdx) Maintain(win *window.Ring) {
	if x.seq > uint64(win.W()) {
		x.t.Advance(x.seq - uint64(win.W()))
	}
}

// imIndex adapts the IM-Tree: expired tuples are filtered by the caller via
// the window and physically discarded at merge time.
type imIndex struct{ t *core.IMTree }

func (x *imIndex) Insert(p kv.Pair) { x.t.Insert(p) }
func (x *imIndex) Remove(kv.Pair)   {}
func (x *imIndex) Query(lo, hi uint32, emit func(kv.Pair) bool) bool {
	return x.t.Query(lo, hi, emit)
}
func (x *imIndex) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	return x.t.QueryPairs(lo, hi, emit)
}
func (x *imIndex) Merges() (int, time.Duration) { return x.t.Merges() }
func (x *imIndex) Maintain(win *window.Ring) {
	if x.t.NeedsMerge() {
		x.t.Merge(func(p kv.Pair) bool { return win.Live(p.Ref) }, win.Count())
	}
}

// pimIndex adapts the PIM-Tree (same disposal policy as IM-Tree).
type pimIndex struct{ t *core.PIMTree }

func (x *pimIndex) Insert(p kv.Pair) { x.t.Insert(p) }
func (x *pimIndex) Remove(kv.Pair)   {}
func (x *pimIndex) Query(lo, hi uint32, emit func(kv.Pair) bool) bool {
	return x.t.Query(lo, hi, emit)
}
func (x *pimIndex) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) bool {
	return x.t.QueryPairs(lo, hi, emit)
}
func (x *pimIndex) Merges() (int, time.Duration) { return x.t.Merges() }
func (x *pimIndex) Maintain(win *window.Ring) {
	if x.t.NeedsMerge() {
		x.t.MergeInPlace(func(p kv.Pair) bool { return win.Live(p.Ref) }, win.Count())
	}
}

// newSerialIndex builds the configured index for a window of length w.
func newSerialIndex(kind IndexKind, w int, cfg SerialConfig) serialIndex {
	switch kind {
	case IndexBTree:
		return &btreeIndex{t: btree.New()}
	case IndexBwTree:
		return &bwIndex{t: bwtree.New(w, bwtree.Config{})}
	case IndexChainB, IndexChainIB:
		l := cfg.ChainLength
		if l == 0 {
			l = 2
		}
		v := chainindex.BChain
		if kind == IndexChainIB {
			v = chainindex.IBChain
		}
		return &chainIdx{t: chainindex.New(l, w, v)}
	case IndexIMTree:
		return &imIndex{t: core.NewIMTree(w, cfg.IM)}
	case IndexPIMTree:
		// One goroutine owns a serial index, so the subindex mutexes would
		// only ever be taken uncontended — once per insert and per probe.
		pim := cfg.PIM
		pim.NoLocks = true
		return &pimIndex{t: core.NewPIMTree(w, pim)}
	default:
		panic("join: unknown index kind")
	}
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
	rings := [2]*window.Ring{window.NewRing(wr), window.NewRing(ws)}
	idxs := [2]serialIndex{newSerialIndex(cfg.Index, wr, cfg), newSerialIndex(cfg.Index, ws, cfg)}
	if cfg.Self {
		rings[1] = rings[0]
		idxs[1] = idxs[0]
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
		eagerDelete := cfg.Index == IndexBTree || cfg.Index == IndexBwTree
		ref, _, expired, hasExpired := own.Append(a.Key)
		if hasExpired {
			if eagerDelete {
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
		if cfg.Index == IndexIMTree || cfg.Index == IndexPIMTree || cfg.Index == IndexChainB || cfg.Index == IndexChainIB {
			t0 = time.Now()
			ownIdx.Maintain(own)
			st.Add(metrics.StepMerge, time.Since(t0))
		} else {
			ownIdx.Maintain(own)
		}
		st.Tick()
	}
	// The scan accumulator included a second descent per tuple; remove it.
	st.Add(metrics.StepScan, -st.Total(metrics.StepSearch))
	return st
}
