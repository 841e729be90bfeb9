package pimtree

import (
	"sync"
	"time"

	"pimtree/internal/tune"
)

// tuner is the AutoTune driver: a goroutine that periodically folds the
// engine's live statistics into a tune.Sample, feeds the feedback
// controller, and applies the decisions it emits through Reconfigure. The
// controller owns the judgement (hysteresis, cooldown, bounded steps); the
// tuner only owns the plumbing.
type tuner struct {
	e    *Engine
	ctrl *tune.Controller
	ivl  time.Duration
	done chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	last string // most recent applied decision, for Tuning/LastDecision
}

func startTuner(e *Engine, pol TunePolicy) *tuner {
	ivl := pol.Interval
	if ivl <= 0 {
		ivl = 250 * time.Millisecond
	}
	t := &tuner{
		e: e,
		ctrl: tune.NewController(tune.Policy{
			Streak:        pol.Streak,
			Cooldown:      pol.Cooldown,
			QueueHigh:     pol.QueueHigh,
			ImbalanceHigh: pol.ImbalanceHigh,
			MinShards:     pol.MinShards,
			MaxShards:     pol.MaxShards,
		}),
		ivl:  ivl,
		done: make(chan struct{}),
	}
	t.wg.Add(1)
	go t.loop()
	return t
}

func (t *tuner) loop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.ivl)
	defer tick.Stop()
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
			t.observe()
		}
	}
}

// observe takes one sample and applies the controller's decision, if any.
// Every read here is a lock-free snapshot accessor, so sampling never
// stalls the producer; only an applied decision contends (Reconfigure
// serializes on the producer mutex).
func (t *tuner) observe() {
	e := t.e
	if e.state.Load() != stateOpen {
		return
	}
	snap := e.router.LoadSnapshot()
	s := tune.Sample{
		Shards:     len(snap),
		Imbalance:  shardImbalance(snap),
		Rebalances: e.router.Rebalances(),
		Tuples:     e.router.Published(),
	}
	for _, l := range snap {
		if l.QueueDepth > s.QueueDepth {
			s.QueueDepth = l.QueueDepth
		}
		if l.QueueHW > s.QueueHW {
			s.QueueHW = l.QueueHW
		}
	}
	e.tunMu.Lock()
	s.Adaptive = e.cfg.Adaptive
	e.tunMu.Unlock()

	d, ok := t.ctrl.Observe(s)
	if !ok {
		return
	}
	var delta Delta
	switch d.Action {
	case tune.ActionGrowShards, tune.ActionShrinkShards:
		delta.Shards = d.Shards
	case tune.ActionEnableRebalance:
		delta.Rebalance = &RebalancePolicy{}
	default:
		return
	}
	if err := e.Reconfigure(delta); err != nil {
		// The engine aborted or closed under us; the next sample (or stop)
		// notices. A validation failure cannot happen — the controller only
		// emits deltas the merged config accepts.
		return
	}
	e.decisions.Add(1)
	t.mu.Lock()
	t.last = d.Action.String() + ": " + d.Reason
	t.mu.Unlock()
}

func (t *tuner) lastDecision() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last
}

func (t *tuner) stop() {
	close(t.done)
	t.wg.Wait()
}
