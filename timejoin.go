package pimtree

import (
	"pimtree/internal/btree"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/ooo"
	"pimtree/internal/window"
)

// TimeJoinOptions configures an incremental time-based band join — the
// paper's Section 2.1 notes the approach carries to time-based windows; this
// is that extension. Tuples carry logical timestamps (any uint64 unit:
// nanoseconds, milliseconds, event time...); a tuple stays in its window
// while now - ts < Span.
//
// With the zero-value LatePolicy (LateNone) timestamps must be
// non-decreasing across Push calls. Setting any other LatePolicy enables
// buffered out-of-order ingestion: arrivals are held in a reorder buffer and
// joined in timestamp order once the watermark (largest observed timestamp
// minus Slack) passes them, so any input whose disorder stays within Slack
// joins exactly as its timestamp-sorted equivalent. Call Flush at
// end-of-stream to drain the buffer.
type TimeJoinOptions struct {
	Span    uint64 // window duration in timestamp units (required)
	Self    bool   // self-join: one stream, one window
	Diff    uint32 // band half-width
	OnMatch func(Match)

	// Slack bounds the event-time disorder tolerated by the reorder buffer
	// (in timestamp units). Meaningful only with a LatePolicy other than
	// LateNone.
	Slack uint64
	// LatePolicy selects the fate of tuples later than Slack and, when not
	// LateNone, switches Push into buffered out-of-order mode.
	LatePolicy LatePolicy
	// OnLate observes tuples later than Slack (required for LateCall,
	// optional diagnostics for LateDrop/LateEmit).
	OnLate func(t TimedArrival, lateness uint64)
}

// TimeJoin is an incremental time-window band join. Not safe for concurrent
// use.
type TimeJoin struct {
	opts    TimeJoinOptions
	rings   [2]*window.TimeRing
	idxs    [2]*btree.Tree
	caps    [2]int
	reorder *ooo.Reorderer // nil in strict (LateNone) mode
	clock   uint64         // strict mode: the latest timestamp pushed
	matches uint64
	tuples  uint64
}

// NewTimeJoin builds an incremental time-based join operator.
func NewTimeJoin(o TimeJoinOptions) (*TimeJoin, error) {
	if err := validateTimeWindow(o.Span, 0, false); err != nil {
		return nil, err
	}
	if err := validateLate(o.LatePolicy, o.Slack, o.OnLate); err != nil {
		return nil, err
	}
	j := &TimeJoin{opts: o}
	j.rings[0] = window.NewTimeRing(o.Span, 1024)
	j.idxs[0] = btree.New()
	if o.Self {
		j.rings[1] = j.rings[0]
		j.idxs[1] = j.idxs[0]
	} else {
		j.rings[1] = window.NewTimeRing(o.Span, 1024)
		j.idxs[1] = btree.New()
	}
	j.caps[0] = j.rings[0].Capacity()
	j.caps[1] = j.rings[1].Capacity()
	if o.LatePolicy != LateNone {
		j.reorder = ooo.New(o.Slack, o.LatePolicy.oooPolicy(), oooLateAdapter(o.OnLate))
	}
	return j, nil
}

// Push processes one tuple with timestamp ts and returns the number of
// matches produced by this call.
//
// In strict mode (LateNone) ts must be non-decreasing across all Push calls
// (one clock for both streams, which also expires the opposite window) and
// the tuple joins immediately; a regression panics at the call, before the
// probe, with the Engine's error for it, which wraps ErrUnordered. In
// buffered mode the tuple enters the reorder buffer; the call joins — in
// timestamp order — every buffered tuple the advancing watermark releases,
// so the returned matches may belong to earlier arrivals and a tuple's own
// matches may surface in later calls (or in Flush).
//
// A StreamID other than R and S panics with "pimtree: unknown StreamID <n>"
// at the call, before the tuple reaches the reorder buffer.
func (j *TimeJoin) Push(s StreamID, key uint32, ts uint64) int {
	if err := checkStream(s); err != nil {
		panic(err)
	}
	if j.reorder == nil {
		if ts < j.clock {
			panic(errNotSorted())
		}
		j.clock = ts
		return j.pushOrdered(s, key, ts)
	}
	before := j.matches
	j.reorder.Push(ooo.Tuple{Stream: uint8(s), Key: key, TS: ts}, j.emitOrdered)
	return int(j.matches - before)
}

// Flush drains the reorder buffer, joining every held tuple in timestamp
// order, and returns the number of matches produced. Call it at
// end-of-stream or on a lull; a no-op in strict mode. Flushing advances the
// watermark past everything it released, so tuples pushed afterwards with
// older timestamps are late and follow the LatePolicy.
func (j *TimeJoin) Flush() int {
	if j.reorder == nil {
		return 0
	}
	before := j.matches
	j.reorder.Flush(j.emitOrdered)
	return int(j.matches - before)
}

// emitOrdered adapts the reorder buffer's release callback to the ordered
// join core.
func (j *TimeJoin) emitOrdered(t ooo.Tuple) {
	j.pushOrdered(StreamID(t.Stream), t.Key, t.TS)
}

// pushOrdered is the ordered join core: ts must be >= every prior admitted
// timestamp.
func (j *TimeJoin) pushOrdered(s StreamID, key uint32, ts uint64) int {
	own, opp := j.sid(s), j.oppID(s)
	ownRing, oppRing := j.rings[own], j.rings[opp]
	ownIdx, oppIdx := j.idxs[own], j.idxs[opp]

	// Evict expired tuples of the opposite window before the lookup.
	oppRing.AdvanceTime(ts, func(p kv.Pair) { oppIdx.Delete(p) })

	lo, hi := join.Band{Diff: j.opts.Diff}.Range(key)
	// The probing tuple's per-stream sequence number is the one Append will
	// assign below.
	probeSeq := ownRing.NextSeq()
	matches := 0
	oppIdx.Query(lo, hi, func(p kv.Pair) bool {
		if oppRing.Live(p.Ref) {
			matches++
			if j.opts.OnMatch != nil {
				_, seq := oppRing.Get(p.Ref)
				j.opts.OnMatch(Match{ProbeStream: s, ProbeSeq: probeSeq, MatchSeq: seq})
			}
		}
		return true
	})

	ref, _ := ownRing.Append(key, ts, func(p kv.Pair) { ownIdx.Delete(p) })
	ownIdx.Insert(kv.Pair{Key: key, Ref: ref})
	// Time windows are unbounded in population; ring growth re-homes refs,
	// so the index is rebuilt when it happens.
	if ownRing.NeedsReindex(j.caps[own]) {
		j.caps[own] = ownRing.Capacity()
		ownIdx.Reset()
		mask := uint64(ownRing.Capacity() - 1)
		ownRing.Scan(func(key uint32, seq uint64, _ uint64) bool {
			ownIdx.Insert(kv.Pair{Key: key, Ref: uint32(seq & mask)})
			return true
		})
	}
	j.matches += uint64(matches)
	j.tuples++
	return matches
}

// Matches returns the total number of matches produced so far.
func (j *TimeJoin) Matches() uint64 { return j.matches }

// Tuples returns the number of tuples joined so far (in buffered mode,
// tuples still in the reorder buffer and late-dropped tuples are excluded).
func (j *TimeJoin) Tuples() uint64 { return j.tuples }

// WindowCount returns the live population of a stream's window.
func (j *TimeJoin) WindowCount(s StreamID) int { return j.rings[j.sid(s)].Count() }

// Pending returns the number of tuples held in the reorder buffer (zero in
// strict mode).
func (j *TimeJoin) Pending() int {
	if j.reorder == nil {
		return 0
	}
	return j.reorder.Pending()
}

// Watermark returns the out-of-order admission frontier (largest observed
// timestamp minus Slack; zero in strict mode).
func (j *TimeJoin) Watermark() uint64 {
	if j.reorder == nil {
		return 0
	}
	return j.reorder.Watermark()
}

// LateDropped returns how many tuples arrived later than Slack and were not
// joined (LateDrop discards plus LateCall hand-offs).
func (j *TimeJoin) LateDropped() uint64 {
	if j.reorder == nil {
		return 0
	}
	return j.reorder.LateDropped()
}

// MaxObservedDisorder returns the largest observed lateness across pushed
// tuples (zero in strict mode, where disorder is a contract violation).
func (j *TimeJoin) MaxObservedDisorder() uint64 {
	if j.reorder == nil {
		return 0
	}
	return j.reorder.MaxDisorder()
}

func (j *TimeJoin) sid(s StreamID) int {
	if j.opts.Self {
		return 0
	}
	return int(s)
}

func (j *TimeJoin) oppID(s StreamID) int {
	if j.opts.Self {
		return 0
	}
	return 1 - int(s)
}

// TimedArrival is one tuple with an event timestamp, as handed to the
// OnLate callbacks of the time-based joins.
type TimedArrival struct {
	Stream StreamID
	Key    uint32
	TS     uint64
}
