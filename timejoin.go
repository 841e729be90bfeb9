package pimtree

import (
	"pimtree/internal/btree"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/window"
)

// TimeJoinOptions configures an incremental time-based band join — the
// paper's Section 2.1 notes the approach carries to time-based windows; this
// is that extension. Tuples carry logical timestamps (any uint64 unit:
// nanoseconds, milliseconds, event time...); a tuple stays in its window
// while now - ts < Span.
//
// Timestamps must be non-decreasing across Push calls. Input whose disorder
// is bounded joins through an Engine in ModeShardedTime with a LatePolicy,
// at any Shards, 1 included.
type TimeJoinOptions struct {
	Span    uint64 // window duration in timestamp units (required)
	Self    bool   // self-join: one stream, one window
	Diff    uint32 // band half-width
	OnMatch func(Match)
}

// TimeJoin is an incremental time-window band join: the strict serial
// reference for time windows. Not safe for concurrent use.
type TimeJoin struct {
	opts    TimeJoinOptions
	rings   [2]*window.TimeRing
	idxs    [2]*btree.Tree
	clock   uint64 // the latest timestamp pushed
	matches uint64
	tuples  uint64
}

// NewTimeJoin builds an incremental time-based join operator.
func NewTimeJoin(o TimeJoinOptions) (*TimeJoin, error) {
	if err := validateTimeWindow(o.Span, 0, false); err != nil {
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
	return j, nil
}

// Push joins one tuple with timestamp ts and returns the number of matches
// it produced.
//
// ts must be non-decreasing across all Push calls (one clock for both
// streams, which also expires the opposite window). A regression panics at
// the call, before the probe, with the Engine's error for it, which wraps
// ErrUnordered. A StreamID other than R and S panics with
// "pimtree: unknown StreamID <n>" at the call.
func (j *TimeJoin) Push(s StreamID, key uint32, ts uint64) int {
	if err := checkStream(s); err != nil {
		panic(err)
	}
	if ts < j.clock {
		panic(errNotSorted())
	}
	j.clock = ts
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
	oppIdx.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		for _, p := range run {
			if oppRing.Live(p.Ref) {
				matches++
				if j.opts.OnMatch != nil {
					_, seq := oppRing.Get(p.Ref)
					j.opts.OnMatch(Match{ProbeStream: s, ProbeSeq: probeSeq, MatchSeq: seq})
				}
			}
		}
		return true
	})

	ref, _ := ownRing.Append(key, ts, func(p kv.Pair) { ownIdx.Delete(p) })
	ownIdx.Insert(kv.Pair{Key: key, Ref: ref})
	j.matches += uint64(matches)
	j.tuples++
	return matches
}

// Matches returns the total number of matches produced so far.
func (j *TimeJoin) Matches() uint64 { return j.matches }

// Tuples returns the number of tuples joined so far.
func (j *TimeJoin) Tuples() uint64 { return j.tuples }

// WindowCount returns the live population of a stream's window.
func (j *TimeJoin) WindowCount(s StreamID) int { return j.rings[j.sid(s)].Count() }

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

// TimedArrival is one tuple with an event timestamp, as handed to
// Config.OnLate.
type TimedArrival struct {
	Stream StreamID
	Key    uint32
	TS     uint64
}
