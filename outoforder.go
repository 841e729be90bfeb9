package pimtree

import (
	"fmt"

	"pimtree/internal/ooo"
)

// LatePolicy selects how ModeShardedTime treats tuples that arrive later
// than Slack allows — their event time is already below the watermark
// (largest observed timestamp minus Slack), so admitting them as-is would
// regress the join's clock. Any policy other than LateNone switches the
// ingestion path into buffered out-of-order mode: arrivals are held in a
// bounded reorder buffer and admitted in timestamp order once the watermark
// passes them. For any input whose disorder stays within Slack, the admitted
// sequence is exactly the stable timestamp sort of the input and no tuple is
// late.
type LatePolicy uint8

const (
	// LateNone keeps the strict contract: the caller guarantees
	// timestamp-ordered input and no reorder buffering happens. This is the
	// zero value, and the only contract TimeJoin has.
	LateNone LatePolicy = iota
	// LateDrop discards tuples later than Slack (counted by LateDropped).
	LateDrop
	// LateEmit admits late tuples immediately with their effective event
	// time clamped to the watermark, preserving ordered admission.
	LateEmit
	// LateCall hands late tuples to OnLate without joining them; they count
	// toward LateDropped. Requires OnLate.
	LateCall
)

// String names the policy.
func (p LatePolicy) String() string {
	switch p {
	case LateNone:
		return "none"
	case LateDrop:
		return "drop"
	case LateEmit:
		return "emit"
	case LateCall:
		return "call"
	default:
		return "unknown"
	}
}

// oooPolicy maps the public policy onto the reorder buffer's.
func (p LatePolicy) oooPolicy() ooo.Policy {
	switch p {
	case LateEmit:
		return ooo.Emit
	case LateCall:
		return ooo.Call
	default:
		return ooo.Drop
	}
}

// validateLate checks Config's out-of-order knobs.
func validateLate(p LatePolicy, slack uint64, onLate func(TimedArrival, uint64)) error {
	switch p {
	case LateNone:
		if slack > 0 {
			return fmt.Errorf("pimtree: Slack requires a LatePolicy (LateDrop, LateEmit, or LateCall)")
		}
	case LateDrop, LateEmit:
		// OnLate is an optional diagnostic tap here.
	case LateCall:
		if onLate == nil {
			return fmt.Errorf("pimtree: LateCall requires OnLate")
		}
	default:
		return fmt.Errorf("pimtree: unknown LatePolicy %d", p)
	}
	return nil
}

// oooLateAdapter converts a public OnLate callback to the reorder buffer's.
func oooLateAdapter(onLate func(TimedArrival, uint64)) func(ooo.Tuple, uint64) {
	if onLate == nil {
		return nil
	}
	return func(t ooo.Tuple, lateness uint64) {
		onLate(TimedArrival{Stream: StreamID(t.Stream), Key: t.Key, TS: t.TS}, lateness)
	}
}
