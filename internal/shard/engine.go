package shard

import (
	"cmp"
	"iter"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/wal"
)

// opKind discriminates the two commands a shard processes.
type opKind uint8

const (
	opInsert opKind = iota
	opProbe
)

// op is one routed command. Ops reach a shard in global arrival order
// (batching never reorders a shard's FIFO), which is what makes the
// single-writer engine exact: a probe sees precisely the inserts routed
// before it and filters liveness by the [te, tl) sequence window captured at
// admission.
type op struct {
	kind   opKind
	stream uint8  // store slot: owner stream for inserts, probed stream for probes
	key    uint32 // insert key
	lo, hi uint32 // probe band range
	seq    uint64 // insert: the tuple's global per-stream sequence
	te, tl uint64 // watermark (inserts: te only) / probe window bounds
	ts     uint64 // timed mode: the tuple's event timestamp (inserts only)
	idx    int    // probe: arrival index for the result slot
	bucket int    // probe: fan-out position within the arrival's result row
}

// maxSpan bounds the sequence range one probe or merge may compare over. An
// index ref is the low 32 bits of its tuple's sequence, liveness is the
// unsigned distance back from the range's upper end (see engine.probe), and
// that distance is exact while the range is at most half the ref space — the
// other half is the room a stale entry has to linger before reindex (see
// engine.add) removes it.
const maxSpan = 1 << 31

// liveRange is one slot's merge filter: an index entry survives a merge iff
// its sequence lies in [hi-span, hi), compared in the refs' own 32-bit
// arithmetic. maintain refreshes it from the store before offering a merge;
// keep is the bound live method, built once so maintenance does not allocate.
type liveRange struct {
	hi, span uint32
	keep     func(kv.Pair) bool
}

func (r *liveRange) live(p kv.Pair) bool { return r.hi-1-p.Ref < r.span }

// engine is one shard: a single-writer join instance over the shard's key
// range. All mutation happens on the shard's worker goroutine — or, during a
// reshape or snapshot epoch, on the router goroutine while every worker is
// quiescent at the drain barrier — so the engine needs no locks of its own.
type engine struct {
	cfg    Config // Timed, Self, WR/WS and the index knobs shape the slots
	stores [2]*store
	idxs   [2]join.Index
	evicts [2]func(kv.Pair) // Remove hooks for eager indexes (nil otherwise)
	// Probe state for the zero-allocation hot path: the in-flight probe's
	// sequence range and the destination slice live in fields, and pemit is
	// the single callback built once at construction — probe never
	// materializes an escaping closure or copies its result out.
	pemit func([]kv.Pair) bool
	plast uint64 // tl-1: the newest sequence the probe may match
	pspan uint32 // the probe matches sequences in (plast-pspan, plast]
	pdst  []uint64
	lives [2]*liveRange // per-stream merge filters
	locs  join.Locator  // a batch chunk's TS descents (see locate)
	// resident is a monitoring gauge: tuples currently stored across both
	// streams, refreshed by the worker after each batch and read by load
	// snapshots without synchronization.
	resident atomic.Int64
	// baseMerges/baseMergeTime accumulate merge statistics of indexes that
	// were discarded by refills (see load), so Stats.Merges survives them.
	baseMerges    int
	baseMergeTime time.Duration
}

func newEngine(cfg Config) *engine {
	e := &engine{cfg: cfg}
	e.installSlot(0, 0)
	if !cfg.Self {
		e.installSlot(1, 0)
	}
	e.locs = join.NewLocator(e.idxs[0], cfg.Self)
	e.pemit = e.emitPairs
	return e
}

// installSlot gives a stream slot an empty store and index whose eviction
// watermark starts at wm, with the eviction and liveness hooks bound to them.
// For self-joins slot 0 is the only real slot and slot 1 aliases it.
func (e *engine) installSlot(slot int, wm uint64) {
	w := e.cfg.WR
	if slot == 1 {
		w = e.cfg.WS
	}
	// w sizes the delta-merge thresholds exactly as in the unsharded joins
	// (per-shard indexes hold fewer entries, so merges are rarer).
	idx := join.NewIndex(e.cfg.Index, w, e.cfg.PIM)
	st, live := newStore(idx.Eager() || e.cfg.Timed, e.cfg.Timed), &liveRange{}
	st.wm = wm
	e.stores[slot], e.idxs[slot], e.evicts[slot] = st, idx, nil
	live.keep = live.live
	e.lives[slot] = live
	if idx.Eager() {
		e.evicts[slot] = func(p kv.Pair) { idx.Remove(p) }
	}
	if e.cfg.Self {
		e.stores[1], e.idxs[1], e.evicts[1], e.lives[1] = st, idx, e.evicts[0], live
	}
}

// locate finds the TS descents of a chunk of at most join.LocateChunk ops
// ahead of applying them: each op's key (an insert's key, a probe's lo) is
// added to its slot's Locator in op order, and insert and probe take them
// back in the same order. Merges run only in maintain, after the batch, so
// only a reindex (see add) can leave a position stale; the Located then
// falls back to the index's own descent. The caller resets e.locs once the
// chunk is applied.
func (e *engine) locate(chunk []op) {
	for j := range chunk {
		if o := &chunk[j]; o.kind == opInsert {
			e.locs.AddInsert(o.stream, o.key)
		} else {
			e.locs.AddProbe(o.stream, o.lo)
		}
	}
	e.locs.Locate(&e.idxs)
}

// insert applies an insert op: advance the stream's eviction watermark, then
// store and index the tuple. In timed mode o.te carries the minimum live
// event time and o.ts the tuple's timestamp.
func (e *engine) insert(o *op) {
	at := e.locs.Insert(o.stream)
	e.stores[o.stream].evict(o.te, e.evicts[o.stream])
	e.add(int(o.stream), o.key, o.seq, o.ts, at)
}

// add stores one tuple and indexes it under its sequence's low 32 bits, at
// its located descent when it still holds.
// Sequences must arrive in increasing order per slot (the store assumes it; in
// timed mode admission order is timestamp order, so it is also the timestamp
// order the timed store assumes).
//
// The wrap rule lives here. A stale entry of a delta-merge index lingers
// until the next merge, and once the stream has advanced 2^32 past it its ref
// would read as live again. So no index outlives 2^31 sequences: when seq is
// that far past the first sequence its store — installed with it — was given,
// the slot is reindexed with its residents before the tuple goes in. A merge
// could not do this job: it filters with the same 32-bit compare, and a shard
// that was cold for the whole gap meets the jump in one step.
func (e *engine) add(slot int, key uint32, seq, ts uint64, at join.Located) {
	if st := e.stores[slot]; st.head > 0 && seq-st.first >= maxSpan {
		e.reindex(slot)
	}
	e.stores[slot].append(key, seq, ts)
	at.Insert(e.idxs[slot], kv.Pair{Key: key, Ref: uint32(seq)})
}

// probe applies a probe op against the probed stream's store and returns the
// matched global sequences, reading nothing but the index entries.
//
// After eviction to o.te the store holds exactly the tuples the probe may
// match: everything older is gone (in timed mode admission order is timestamp
// order, so seq >= the tail's seq <=> ts >= te), and everything present was
// routed before the probe, so its seq < tl (a shard's lane is FIFO). With lo
// the sequence at the store's tail, an entry is therefore live iff its
// sequence lies in [lo, tl) — age = uint32(tl)-1-ref below tl-lo — and that
// sequence is tl-1-age. Each tuple has one entry and no two share a ref, so
// there is nothing to deduplicate.
func (e *engine) probe(o *op, dst []uint64) []uint64 {
	at := e.locs.Probe(o.stream)
	st := e.stores[o.stream]
	st.evict(o.te, e.evicts[o.stream])
	span := st.span(o.tl)
	if span == 0 {
		return dst[:0]
	}
	e.plast, e.pspan, e.pdst = o.tl-1, span, dst[:0]
	at.QueryPairs(e.idxs[o.stream], o.lo, o.hi, e.pemit)
	dst, e.pdst = e.pdst, nil
	return dst
}

// emitPairs consumes one contiguous candidate run of the in-flight probe
// (see the probe fields on engine), appending the sequence of every live
// entry to the destination slice.
func (e *engine) emitPairs(ps []kv.Pair) bool {
	last, span, dst := e.plast, e.pspan, e.pdst
	for _, p := range ps {
		if age := uint32(last) - p.Ref; age < span {
			dst = append(dst, last-uint64(age))
		}
	}
	e.pdst = dst
	return true
}

// maintain runs deferred index maintenance (delta merges) for both streams,
// dropping the entries whose tuple has left the store.
func (e *engine) maintain() {
	e.maintainSlot(0)
	if !e.cfg.Self {
		e.maintainSlot(1)
	}
}

func (e *engine) maintainSlot(slot int) {
	st, r := e.stores[slot], e.lives[slot]
	hi := st.newest + 1 // one past the newest resident sequence; unused when empty
	r.hi, r.span = uint32(hi), st.span(hi)
	// Each resident has exactly one entry, and only residents are live.
	e.idxs[slot].Maintain(r.keep, int(st.head-st.tail))
}

// reindex replaces a slot's index with one holding exactly its resident
// tuples (see add), put back in the sequence order load needs.
func (e *engine) reindex(slot int) {
	wm := e.stores[slot].wm
	_, walk := e.live(slot, wm)
	e.load(slot, wm, slices.SortedFunc(walk, func(a, b wal.Tuple) int { return cmp.Compare(a.Seq, b.Seq) }))
}

// merges sums merge statistics over both indexes, plus the merges of any
// indexes discarded by refills.
func (e *engine) merges() (int, time.Duration) {
	m, t := e.idxs[0].Merges()
	if !e.cfg.Self {
		m2, t2 := e.idxs[1].Merges()
		m, t = m+m2, t+t2
	}
	return m + e.baseMerges, t + e.baseMergeTime
}

// updateResident refreshes the monitoring gauge from the stores.
func (e *engine) updateResident() {
	n := int64(e.stores[0].head - e.stores[0].tail)
	if !e.cfg.Self {
		n += int64(e.stores[1].head - e.stores[1].tail)
	}
	e.resident.Store(n)
}

// live counts stream slot's tuples live at wm and returns a sequence that
// yields them, each tagged with the slot as its stream, copying nothing.
// Liveness is seq >= wm for count windows and event time >= wm for timed ones
// (wm is then the timestamp watermark). This is the one walk of a slot's live
// tuples: reindex, gather and the WAL snapshot all read through it. The
// worker must be quiescent (drain barrier) until the sequence is consumed.
//
// The count is the store's: the tuples at positions [liveFrom(wm), head). A
// keyed store yields them from its own columns by walking on from there, in
// sequence order. A keyless one has no keys to yield, so the walk reads the
// slot's index instead — every entry, TS and TI alike, in the index's order
// (key order for the two-stage trees) — and keeps an entry iff its ref lies
// in the live range, the compare maintainSlot filters merges with, rebuilding
// its sequence from the range's top. The range starts at the oldest live
// resident, not at wm: a store whose own watermark is above wm has evicted
// tuples that its index may still hold. Each resident has exactly one entry,
// so exactly the counted tuples come out.
func (e *engine) live(slot int, wm uint64) (int, iter.Seq[wal.Tuple]) {
	st := e.stores[slot]
	from := st.liveFrom(wm)
	n := int(st.head - from.pos)
	if st.keyed {
		return n, func(yield func(wal.Tuple) bool) {
			for c := from; c.pos < st.head; st.next(&c) {
				key, ts := st.at(c.pos)
				if !yield(wal.Tuple{Stream: uint8(slot), Key: key, Seq: c.seq, TS: ts}) {
					return
				}
			}
		}
	}
	if n == 0 {
		return 0, func(func(wal.Tuple) bool) {}
	}
	last := st.newest
	span, idx := uint32(last+1-from.seq), e.idxs[slot]
	return n, func(yield func(wal.Tuple) bool) {
		idx.QueryPairs(0, math.MaxUint32, func(ps []kv.Pair) bool {
			for _, p := range ps {
				if age := uint32(last) - p.Ref; age < span {
					if !yield(wal.Tuple{Stream: uint8(slot), Key: p.Key, Seq: last - uint64(age)}) {
						return false
					}
				}
			}
			return true
		})
	}
}

// load refills a stream slot, the one way a slot is filled from existing
// tuples: bank the discarded index's merge statistics, install an empty
// store and index whose eviction watermark starts at wm, add tuples, which
// must be in sequence order, and refresh the resident gauge. The worker must
// be quiescent, or be the caller (reindex).
func (e *engine) load(slot int, wm uint64, tuples []wal.Tuple) {
	m, t := e.idxs[slot].Merges()
	e.baseMerges += m
	e.baseMergeTime += t
	e.installSlot(slot, wm)
	for _, tp := range tuples {
		e.add(slot, tp.Key, tp.Seq, tp.TS, join.Located{})
	}
	e.updateResident()
}

// liveWindow counts the tuples of the pool's engines live at wms and returns
// a sequence that yields them (see engine.live): slot, then shard, then each
// slot's extract in its own order, from the frontier wms[slot]. Nothing is
// copied, so a snapshot costs no memory that grows with the window. The
// workers must be quiescent.
func (p *pool) liveWindow(wms [2]uint64) (int, iter.Seq[wal.Tuple]) {
	n, walks := 0, []iter.Seq[wal.Tuple](nil)
	for slot := 0; slot < storeSlots(p.engines[0].cfg.Self); slot++ {
		for _, e := range p.engines {
			m, walk := e.live(slot, wms[slot])
			n, walks = n+m, append(walks, walk)
		}
	}
	return n, func(yield func(wal.Tuple) bool) {
		for _, walk := range walks {
			for t := range walk {
				if !yield(t) {
					return
				}
			}
		}
	}
}

// gather returns every tuple of the pool's engines live at wms, plus extra,
// in the order deal needs: by stream slot, then by sequence. The workers must
// be quiescent.
func (p *pool) gather(wms [2]uint64, extra []wal.Tuple) []wal.Tuple {
	n, live := p.liveWindow(wms)
	window := slices.AppendSeq(make([]wal.Tuple, 0, n+len(extra)), live)
	window = append(window, extra...)
	self := p.engines[0].cfg.Self
	slices.SortFunc(window, func(a, b wal.Tuple) int {
		return cmp.Or(cmp.Compare(sid(self, a.Stream), sid(self, b.Stream)), cmp.Compare(a.Seq, b.Seq))
	})
	return window
}

// deal loads every stream slot of engines at wms[slot] with the tuples of
// window that part assigns it. window must be in sequence order per slot
// (see gather). A slot whose store already holds exactly its share at that
// watermark keeps its store and index, so a Member.Reassign rebuilds only the
// slots that an export left or an import reached. The engines must be
// quiescent.
func deal(engines []*engine, part Partitioner, self bool, wms [2]uint64, window []wal.Tuple) {
	k := len(engines)
	parts := make([][]wal.Tuple, storeSlots(self)*k)
	for _, t := range window {
		b := int(sid(self, t.Stream))*k + Clamp(part.ShardOf(t.Key), k)
		parts[b] = append(parts[b], t)
	}
	for b, tuples := range parts {
		if e, slot := engines[b%k], b/k; !e.stores[slot].holds(wms[slot], tuples) {
			e.load(slot, wms[slot], tuples)
		}
	}
}

// storeFrontiers returns, per store slot, the highest eviction watermark any
// of engines' stores has applied. The engines must be quiescent.
func storeFrontiers(engines []*engine) (wms [2]uint64) {
	for slot := range wms {
		for _, e := range engines {
			wms[slot] = max(wms[slot], e.stores[slot].wm)
		}
	}
	return wms
}
