package join

import (
	"pimtree/internal/core"
	"pimtree/internal/kv"
	"pimtree/internal/window"
)

// SerialConfig configures the single-threaded join.
type SerialConfig struct {
	WR, WS int  // window lengths (WS ignored for self-join)
	Band   Band // band predicate
	Self   bool // self-join: one stream, one window, one index

	Index IndexKind // IBWJ index choice
	// PIM configures the two-stage indexes, PIM-Tree and IM-Tree; the
	// IM-Tree ignores InsertionDepth (it is the PIM-Tree at depth 0).
	PIM core.PIMTreeConfig

	Sink MatchSink // optional result sink
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

// Windows returns the R and S window lengths (WR twice for a self-join),
// panicking on one that is not positive.
func (c SerialConfig) Windows() (wr, ws int) {
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
