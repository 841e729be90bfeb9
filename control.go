package pimtree

import (
	"fmt"
	"time"

	"pimtree/internal/shard"
)

// Delta describes a live reconfiguration applied by Engine.Reconfigure.
// Zero (or nil) fields keep the current value, so the zero Delta is a no-op.
type Delta struct {
	// Shards is the target shard count. Changing it is a full reshape
	// epoch: the engine quiesces at a drain barrier, spawns a fresh shard
	// set, migrates the live window contents into it, and retires the old
	// one — the match multiset is unaffected. Under heavy key skew the
	// effective count can collapse below the request (quantile boundaries
	// may coincide).
	Shards int
	// BatchSize swaps the routed-ops-per-batch bound.
	BatchSize int
	// QueueCapacity swaps the in-flight ring bound (the backpressure
	// horizon).
	QueueCapacity int
	// Rebalance, when non-nil, enables adaptive shard rebalancing with the
	// given policy (replacing the current policy if it was already on).
	// ModeSharded only — the timed runtime rejects it with the same error
	// as Open.
	Rebalance *RebalancePolicy
}

// zero reports whether the delta requests no change at all.
func (d Delta) zero() bool {
	return d.Shards == 0 && d.BatchSize == 0 && d.QueueCapacity == 0 && d.Rebalance == nil
}

// Reconfigure applies a live configuration delta to a running sharded
// engine. It validates the merged configuration through the same path as
// Open (invalid deltas fail with the identical errors), waits for the
// producer to reach a safe point, and applies the change at a drain-barrier
// epoch: no tuple is lost, no match is duplicated, and the producer's next
// push proceeds under the new configuration. Safe from any goroutine;
// concurrent calls serialize. Engines in the serial or shared modes return
// an error wrapping ErrNotTunable; closed engines return ErrClosed.
func (e *Engine) Reconfigure(d Delta) error {
	if e.mode != ModeSharded && e.mode != ModeShardedTime {
		return fmt.Errorf("pimtree: %s %w", e.mode, ErrNotTunable)
	}
	if d.Shards < 0 || d.BatchSize < 0 || d.QueueCapacity < 0 {
		return fmt.Errorf("pimtree: negative Reconfigure delta (shards %d, batch %d, capacity %d)",
			d.Shards, d.BatchSize, d.QueueCapacity)
	}
	if err := e.pushable(); err != nil {
		return err
	}
	if err := e.lockProducer(); err != nil {
		return err
	}
	defer e.prodMu.Unlock()
	if d.zero() {
		return nil
	}
	merged := e.cfg
	if d.Shards > 0 {
		merged.Shards = d.Shards
	}
	if d.BatchSize > 0 {
		merged.BatchSize = d.BatchSize
	}
	if d.QueueCapacity > 0 {
		merged.QueueCapacity = d.QueueCapacity
	}
	if d.Rebalance != nil {
		merged.Adaptive = true
		merged.Rebalance = *d.Rebalance
	}
	if _, err := merged.validate(); err != nil {
		return err
	}
	q := shard.Reshape{Shards: d.Shards, BatchSize: d.BatchSize, Capacity: d.QueueCapacity}
	if d.Rebalance != nil {
		q.Policy = &shard.Policy{
			MaxRatio:   d.Rebalance.MaxRatio,
			MinGap:     d.Rebalance.MinGap,
			SampleSize: d.Rebalance.SampleSize,
			ForceEvery: d.Rebalance.ForceEvery,
		}
	}
	e.router.Reshape(q)
	e.tunMu.Lock()
	e.cfg = merged
	e.tunMu.Unlock()
	e.reconfigs.Add(1)
	return nil
}

// Tuning is a point-in-time snapshot of the engine's live-tunable state,
// returned by Engine.Tuning and served by the /tuning admin endpoint.
type Tuning struct {
	// Mode is the resolved execution mode (never ModeAuto).
	Mode Mode
	// Shards is the live shard count — reshape epochs change it, and key
	// skew can hold it below the last requested value. Zero outside the
	// sharded modes.
	Shards int
	// BatchSize and QueueCapacity are the currently applied values
	// (defaults resolved).
	BatchSize     int
	QueueCapacity int
	// Adaptive reports whether shard rebalancing is live; Rebalance is its
	// policy as last configured.
	Adaptive  bool
	Rebalance RebalancePolicy
	// AutoTune reports whether the feedback controller is running.
	AutoTune bool
	// Reconfigures counts applied Reconfigure deltas (manual and
	// controller-driven); Reshapes counts the underlying shard-layer
	// epochs; Decisions counts controller decisions applied.
	Reconfigures int
	Reshapes     int
	Decisions    int
	// LastDecision describes the controller's most recent applied decision
	// ("" before the first).
	LastDecision string
}

// Tuning returns the live-tunable state snapshot. Safe from any goroutine.
func (e *Engine) Tuning() Tuning {
	e.tunMu.Lock()
	cfg := e.cfg
	e.tunMu.Unlock()
	t := Tuning{
		Mode:          e.mode,
		BatchSize:     cfg.BatchSize,
		QueueCapacity: cfg.QueueCapacity,
		Adaptive:      cfg.Adaptive,
		Rebalance:     cfg.Rebalance,
		AutoTune:      cfg.AutoTune,
		Reconfigures:  int(e.reconfigs.Load()),
		Decisions:     int(e.decisions.Load()),
	}
	if t.BatchSize <= 0 {
		t.BatchSize = 64
	}
	if t.QueueCapacity <= 0 {
		if e.mode == ModeShared {
			t.QueueCapacity = 8 << 10
		} else {
			t.QueueCapacity = 1 << 14
		}
	}
	if e.router != nil {
		t.Shards = e.router.Shards()
		t.Reshapes = e.router.Reshapes()
	}
	if e.tuner != nil {
		t.LastDecision = e.tuner.lastDecision()
	}
	return t
}

// TunePolicy adjusts the AutoTune feedback controller. The zero value
// selects defaults; see docs/TUNING.md for the control loop.
type TunePolicy struct {
	// Interval is the controller's sampling period (default 250ms).
	Interval time.Duration
	// Streak is how many consecutive breaching samples a pressure signal
	// needs before the controller acts (default 3); Cooldown is the minimum
	// number of samples between applied decisions (default 8).
	Streak   int
	Cooldown int
	// QueueHigh is the queue-depth pressure threshold in batches
	// (default 24, three quarters of a shard lane); ImbalanceHigh is the load-imbalance ratio above which
	// the controller enables adaptive rebalancing (default 1.4).
	QueueHigh     uint64
	ImbalanceHigh float64
	// MinShards and MaxShards bound the controller's shard-count steps
	// (defaults 1 and 4x the starting count).
	MinShards int
	MaxShards int
}
