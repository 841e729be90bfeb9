package main

import (
	"context"
	"fmt"
	"slices"

	"pimtree"
)

// prefixCounts returns how many arrivals of each stream the first n of the
// pool's replay hold. n is a clean cut, so those are exactly the sequences
// below the counts.
func prefixCounts(p *pool, n int) [2]uint64 {
	cur := cursor{p: p}
	cur.skip(n)
	return cur.sent()
}

// reference joins the first n arrivals of the replay on the serial reference
// — a ModeSerial engine for count windows, TimeJoin over the timestamp-sorted
// arrivals for the timed workload — and returns the match tally the workload
// must reproduce on that prefix.
func reference(w workload, p *pool, n int) (tally, error) {
	prefix := make([]pimtree.Arrival, n)
	(&cursor{p: p}).fill(prefix, nil)
	var ref tally
	onMatch := func(m pimtree.Match) { ref.add(mixMatch(m)) }

	if w.hotBand {
		slices.SortStableFunc(prefix, func(a, b pimtree.Arrival) int {
			switch {
			case a.TS < b.TS:
				return -1
			case a.TS > b.TS:
				return 1
			}
			return 0
		})
		cfg := w.config("")
		j, err := pimtree.NewTimeJoin(pimtree.TimeJoinOptions{Span: cfg.Span, Diff: cfg.Diff, OnMatch: onMatch})
		if err != nil {
			return ref, fmt.Errorf("reference time join: %w", err)
		}
		for _, a := range prefix {
			j.Push(a.Stream, a.Key, a.TS)
		}
		return ref, nil
	}

	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSerial, WindowR: w.window, WindowS: w.window, Diff: w.diff(), OnMatch: onMatch,
	})
	if err != nil {
		return ref, fmt.Errorf("reference engine: %w", err)
	}
	for lo := 0; lo < n; lo += pushBatch {
		if err := e.PushBatch(prefix[lo:min(lo+pushBatch, n)]); err != nil {
			return ref, fmt.Errorf("reference push: %w", err)
		}
	}
	_, err = e.Close(context.Background())
	return ref, err
}

// bruteSampled is the reference for the serial workload itself: for every
// probe of the first n arrivals whose sequence satisfies seq&mask == off, it
// scans the window the probe must have seen — the last w keys of the other
// stream — and tallies the keys within diff. It also returns the number of
// probes checked.
func bruteSampled(w workload, p *pool, n int, mask, off uint64) (ref tally, probes int) {
	prefix := make([]pimtree.Arrival, n)
	(&cursor{p: p}).fill(prefix, nil)
	var keys [2][]uint32
	diff := int64(w.diff())
	for _, a := range prefix {
		own, opp := a.Stream, 1-a.Stream
		seq := uint64(len(keys[own]))
		if seq&mask == off {
			probes++
			window := keys[opp]
			first := max(len(window)-w.window, 0)
			for i, k := range window[first:] {
				if d := int64(k) - int64(a.Key); d >= -diff && d <= diff {
					ref.add(mixMatch(pimtree.Match{ProbeStream: own, ProbeSeq: seq, MatchSeq: uint64(first + i)}))
				}
			}
		}
		keys[own] = append(keys[own], a.Key)
	}
	return ref, probes
}

// tallyOf folds kept matches into a tally.
func tallyOf(ms []pimtree.Match) tally {
	var t tally
	for _, m := range ms {
		t.add(mixMatch(m))
	}
	return t
}
