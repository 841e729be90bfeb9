package pimtree

import (
	"fmt"

	"pimtree/internal/shard"
)

// Delta describes a live reconfiguration applied by Engine.Reconfigure.
// Zero fields keep the current value, so the zero Delta is a no-op.
type Delta struct {
	// Shards is the target shard count. Changing it is a full reshape
	// epoch: the engine quiesces at a drain barrier, spawns a fresh shard
	// set dealt the default stripes, migrates the live window contents into
	// it, and retires the old one — the match multiset is unaffected.
	Shards int
	// BatchSize swaps the routed-ops-per-batch bound.
	BatchSize int
	// QueueCapacity swaps the in-flight ring bound (the backpressure
	// horizon).
	QueueCapacity int
}

// Reconfigure applies a live configuration delta to a running sharded
// engine. It waits for the producer to reach a safe point and applies the
// change at a drain-barrier epoch: no tuple is lost, no match is
// duplicated, and the producer's next push proceeds under the new
// configuration. Safe from any goroutine; concurrent calls serialize.
// Serial engines return an error wrapping ErrNotTunable; closed engines
// return ErrClosed.
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
	if d == (Delta{}) {
		return nil
	}
	e.router.Reshape(shard.Reshape{Shards: d.Shards, BatchSize: d.BatchSize, Capacity: d.QueueCapacity})
	e.applied()
	e.reconfigs.Add(1)
	return nil
}

// Tuning is a point-in-time snapshot of the engine's live-tunable state,
// returned by Engine.Tuning and served by the /tuning admin endpoint.
type Tuning struct {
	// Mode is the resolved execution mode (never ModeAuto).
	Mode Mode
	// Shards is the live shard count — reshape epochs change it. Zero
	// outside the sharded modes.
	Shards int
	// BatchSize and QueueCapacity are the values the router currently runs
	// (defaults resolved). Zero outside the sharded modes.
	BatchSize     int
	QueueCapacity int
	// Reconfigures counts applied Reconfigure deltas; Reshapes counts the
	// underlying shard-layer epochs.
	Reconfigures int
	Reshapes     int
}

// Tuning returns the live-tunable state snapshot. Safe from any goroutine.
func (e *Engine) Tuning() Tuning {
	t := Tuning{Mode: e.mode, Reconfigures: int(e.reconfigs.Load())}
	if e.router != nil {
		e.tunMu.Lock()
		t.BatchSize, t.QueueCapacity = e.cfg.BatchSize, e.cfg.QueueCapacity
		e.tunMu.Unlock()
		t.Shards = e.router.Shards()
		t.Reshapes = e.router.Reshapes()
	}
	return t
}

// applied records the batch size and ring capacity the router runs in the
// engine's config, for Tuning. Producer-side: at Open and after a reshape.
func (e *Engine) applied() {
	e.tunMu.Lock()
	e.cfg.BatchSize, e.cfg.QueueCapacity = e.router.BatchSize(), e.router.Cap()
	e.tunMu.Unlock()
}
