// Package ooo implements bounded-disorder out-of-order ingestion for the
// time-based joins: a reorder buffer that admits event-time streams whose
// tuples arrive up to a configured slack later than the newest timestamp
// already seen, and re-emits them in timestamp order.
//
// The buffer keeps one min-heap per stream, ordered by (timestamp, arrival
// index). A watermark tracks MaxEventTime - Slack; every buffered tuple whose
// timestamp is at or below the watermark is released, smallest first, with
// ties broken by arrival order — so for any input whose disorder stays within
// the slack, the released sequence is exactly the stable timestamp sort of
// the input and nothing is late. A tuple arriving with a timestamp already
// below the watermark ("late beyond slack") cannot be admitted without
// reordering the released prefix; the Policy decides its fate.
//
// This is the disorder-tolerance layer the partition- and adaptivity-focused
// stream-join literature (PanJoin; Chakraborty's shared-nothing multicore
// join) treats as a deployment prerequisite: real event-time streams are
// never perfectly ordered, while the index-based join runtimes in this
// repository (like the paper's Section 2.1 time-window extension) require
// non-decreasing timestamps at their admission edge.
package ooo

// Policy selects what happens to a tuple that arrives later than the slack
// allows (its timestamp is below the current watermark).
type Policy uint8

const (
	// Drop discards late tuples (counted by LateDropped).
	Drop Policy = iota
	// Emit admits late tuples immediately, clamping their effective
	// timestamp to the watermark so the released sequence stays
	// non-decreasing. The tuple joins as if it had arrived exactly at the
	// watermark.
	Emit
	// Call hands late tuples to the OnLate callback only; they are not
	// joined and count toward LateDropped.
	Call
)

// Tuple is one timed arrival flowing through the reorder buffer.
type Tuple struct {
	Stream uint8
	Key    uint32
	TS     uint64
}

// Reorderer is the bounded-disorder reorder buffer. Not safe for concurrent
// use; each ingestion path owns one.
type Reorderer struct {
	slack  uint64
	policy Policy
	onLate func(t Tuple, lateness uint64)

	heaps [2]itemHeap
	seen  bool
	maxTS uint64
	// floor is the watermark's lower bound: the largest timestamp Flush has
	// released. Flush emits tuples the slack-derived watermark has not
	// covered yet, so without the floor a post-Flush push could slip a
	// smaller timestamp into the release order.
	floor uint64

	arrivals    uint64 // pushes so far: the heap's tie-break between equal timestamps
	lateDropped uint64
	maxDisorder uint64
}

// New returns a reorder buffer tolerating the given slack. onLate, when
// non-nil, observes every late tuple regardless of policy (it is the
// side-channel for Call and a diagnostic tap for Drop/Emit).
func New(slack uint64, policy Policy, onLate func(t Tuple, lateness uint64)) *Reorderer {
	return &Reorderer{slack: slack, policy: policy, onLate: onLate}
}

// Watermark returns the release frontier: the largest observed timestamp
// minus the slack (zero before the first tuple and while MaxTS < slack),
// raised to the largest timestamp a Flush has released. Every released
// tuple has TS <= Watermark(); every buffered tuple has TS > Watermark().
func (r *Reorderer) Watermark() uint64 {
	wm := uint64(0)
	if r.seen && r.maxTS >= r.slack {
		wm = r.maxTS - r.slack
	}
	if wm < r.floor {
		wm = r.floor
	}
	return wm
}

// MaxTS returns the largest event timestamp observed (zero before the first
// tuple or Seed).
func (r *Reorderer) MaxTS() uint64 { return r.maxTS }

// Seed primes an empty buffer with a recovered frontier: maxTS restores the
// disorder clock and floor the release watermark, so a restarted session
// resumes the output clock of the durable prefix instead of re-admitting
// event times it already released. Raising only — a seed below the current
// state is ignored.
func (r *Reorderer) Seed(maxTS, floor uint64) {
	if maxTS > r.maxTS || (maxTS > 0 && !r.seen) {
		r.seen = true
		r.maxTS = maxTS
	}
	if floor > r.floor {
		r.floor = floor
	}
}

// Push ingests one tuple, invoking emit zero or more times with released
// tuples in non-decreasing timestamp order (ties in arrival order).
func (r *Reorderer) Push(t Tuple, emit func(Tuple)) {
	idx := r.arrivals
	r.arrivals++
	if r.seen && t.TS < r.maxTS {
		if d := r.maxTS - t.TS; d > r.maxDisorder {
			r.maxDisorder = d
		}
	}
	if !r.seen || t.TS > r.maxTS {
		r.seen = true
		r.maxTS = t.TS
	}
	wm := r.Watermark()
	if r.seen && t.TS < wm {
		// Late beyond slack: the released prefix already covers timestamps
		// past t.TS, so admission would regress the output clock.
		lateness := r.maxTS - t.TS
		if r.onLate != nil {
			r.onLate(t, lateness)
		}
		switch r.policy {
		case Emit:
			t.TS = wm // clamp: >= every released TS, <= every future release
			emit(t)
		default: // Drop, Call
			r.lateDropped++
		}
		return
	}
	r.heaps[t.Stream&1].push(item{t: t, idx: idx})
	r.drain(wm, emit)
}

// Flush releases every buffered tuple in timestamp order. Call it at
// end-of-stream (or on a lull). The buffer stays usable afterwards, but the
// watermark is raised to the largest released timestamp: Flush hands tuples
// past the slack frontier downstream, so anything older that arrives later
// is necessarily late.
func (r *Reorderer) Flush(emit func(Tuple)) {
	r.drain(^uint64(0), func(t Tuple) {
		if t.TS > r.floor {
			r.floor = t.TS
		}
		emit(t)
	})
}

// drain pops tuples with TS <= wm across both stream heaps, globally
// smallest (TS, arrival index) first.
func (r *Reorderer) drain(wm uint64, emit func(Tuple)) {
	for {
		h0, ok0 := r.heaps[0].peek()
		h1, ok1 := r.heaps[1].peek()
		var hp *itemHeap
		switch {
		case ok0 && ok1:
			if h0.before(h1) {
				hp = &r.heaps[0]
			} else {
				hp = &r.heaps[1]
			}
		case ok0:
			hp = &r.heaps[0]
		case ok1:
			hp = &r.heaps[1]
		default:
			return
		}
		if head, _ := hp.peek(); head.t.TS > wm {
			return
		}
		emit(hp.pop().t)
	}
}

// Pending returns the number of buffered (not yet released) tuples.
func (r *Reorderer) Pending() int { return len(r.heaps[0]) + len(r.heaps[1]) }

// LateDropped returns the number of late tuples not admitted to the output
// (Drop discards plus Call hand-offs).
func (r *Reorderer) LateDropped() uint64 { return r.lateDropped }

// MaxDisorder returns the largest observed lateness: max over arrivals of
// (largest earlier timestamp - tuple timestamp). Input whose MaxDisorder
// stays <= slack is released loss-free as its stable timestamp sort.
func (r *Reorderer) MaxDisorder() uint64 { return r.maxDisorder }

// item is one buffered tuple; idx makes the release order a stable sort.
type item struct {
	t   Tuple
	idx uint64
}

// before orders items by (timestamp, arrival index).
func (a item) before(b item) bool {
	return a.t.TS < b.t.TS || (a.t.TS == b.t.TS && a.idx < b.idx)
}

// itemHeap is a slice-backed binary min-heap ordered by item.before. Manual
// (rather than container/heap) to keep the per-tuple hot path free of
// interface dispatch.
type itemHeap []item

func (h itemHeap) peek() (item, bool) {
	if len(h) == 0 {
		return item{}, false
	}
	return h[0], true
}

func (h *itemHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *itemHeap) pop() item {
	s := *h
	root := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s[l].before(s[min]) {
			min = l
		}
		if r < n && s[r].before(s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return root
}
