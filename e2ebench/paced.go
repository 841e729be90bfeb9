package main

import (
	"syscall"
	"time"

	"pimtree"
)

// target is what the generator drives: an engine in process, or a client
// connection to a served one.
type target interface {
	// push hands one batch over; it may block on backpressure.
	push(batch []pimtree.Arrival) error
	// drain returns once every match of the tuples pushed so far has been
	// delivered to the collector.
	drain() error
}

// pacedPlan is an open-loop schedule: ticks batches of per tuples, one every
// interval, whatever the engine does.
type pacedPlan struct {
	per      int
	ticks    int
	interval time.Duration
}

func (p pacedPlan) tuples() int { return p.per * p.ticks }

// pacedTick is the open loop's period. It is short so that a batch is a few
// dozen tuples: with one batch per millisecond the median latency was mostly
// the time the engine took to work through the harness's own 200-tuple burst,
// which moves one for one with the machine's speed of the minute.
const pacedTick = 200 * time.Microsecond

// planPaced schedules rate tuples per second for about seconds, one batch per
// pacedTick. The tick count is rounded to a multiple that keeps the tuple total
// a multiple of shuffleBlock, so the phase ends on a clean cut.
func planPaced(rate int, seconds float64) pacedPlan {
	per := rate / int(time.Second/pacedTick)
	unit := shuffleBlock / gcd(per, shuffleBlock)
	ticks := max(int(seconds*float64(time.Second/pacedTick))/unit, 1) * unit
	return pacedPlan{per: per, ticks: ticks, interval: pacedTick}
}

// sleep blocks the calling thread in nanosleep(2). time.Sleep parks on the
// runtime's poller, whose timeout is rounded up to whole milliseconds: at one
// batch per millisecond it would send every batch most of a tick late.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only makes the caller's loop sleep again
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tagSpace sizes the collector's latency tables for a paced phase that starts
// where cur stands. Called before the heap baseline is taken, so the tables
// cancel out of heap_mb.
func (c *collector) tagSpace(cur cursor, plan pacedPlan) {
	from := cur.sent()
	cur.skip(plan.tuples())
	to := cur.sent()
	c.tags = [2][]int64{make([]int64, to[0]-from[0]), make([]int64, to[1]-from[1])}
	c.lat = make([]int64, 0, 4*plan.tuples())
}

// runPaced sends the plan on schedule and charges every match to the
// scheduled send instant of the batch that held its probing tuple: when push
// blocks, later batches go out late but keep their scheduled instants, so the
// stall shows in the latencies and not in the send times. It returns how late
// each batch left. cur must stand on a clean cut. The phase ends with a drain,
// whose matches are charged like the others.
func runPaced(t target, cur *cursor, col *collector, plan pacedPlan, tr *tracer, parent int32) (late []int64, err error) {
	batch := make([]pimtree.Arrival, plan.per)
	seqs := make([]uint64, plan.per)
	late = make([]int64, 0, plan.ticks)
	col.base = cur.sent()
	col.start = time.Now()
	col.latOn.Store(true)
	defer col.latOn.Store(false)
	for k := 0; k < plan.ticks; k++ {
		due := time.Duration(k) * plan.interval
		for wait := due - time.Since(col.start); wait > 0; wait = due - time.Since(col.start) {
			sleep(wait)
		}
		late = append(late, int64(time.Since(col.start)-due))
		cur.fill(batch, seqs)
		for j, a := range batch {
			col.tags[a.Stream][seqs[j]-col.base[a.Stream]] = int64(due)
		}
		col.ready.Store(int64(k))
		id := tr.begin("engine.push_paced", parent, int64(k))
		err = t.push(batch)
		tr.end(id)
		if err != nil {
			return late, err
		}
	}
	id := tr.begin("engine.drain", parent, -1)
	err = t.drain()
	tr.end(id)
	return late, err
}
