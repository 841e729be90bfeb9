package tune

import (
	"fmt"

	"pimtree/internal/shard"
)

// Policy tunes the feedback controller. The zero value selects defaults; the
// cadence fields are in samples (one Observe call = one sample), which keeps
// the decision logic independent of the caller's polling period.
type Policy struct {
	// Streak is how many consecutive breaching samples a pressure signal
	// needs before the controller acts on it — the hysteresis that keeps a
	// single noisy sample from triggering a structural change (default 3).
	Streak int
	// IdleStreak is the (longer) streak required before shrinking an idle
	// engine: scaling down is cheap to get wrong in both directions, so the
	// controller demands more evidence (default 4x Streak).
	IdleStreak int
	// Cooldown is the minimum number of samples between applied decisions,
	// letting one change's effect show up in the metrics before the next is
	// considered (default 8).
	Cooldown int

	// QueueHigh is the queue-depth pressure threshold: a sample whose
	// deepest shard queue is at or above it (while the high-water mark is
	// still rising) counts toward the grow streak. A shard lane holds
	// shard.LaneDepth batches, so the default of three quarters of it means
	// "nearly full".
	QueueHigh uint64
	// ImbalanceHigh is the load-imbalance threshold (max/mean over shard
	// loads) above which the controller enables adaptive rebalancing
	// (default 1.4).
	ImbalanceHigh float64

	// MinShards and MaxShards bound the shard-count steps (defaults 1 and
	// 4x the observed initial count). Growth doubles, shrinking halves —
	// bounded geometric steps reach any target quickly without overshooting
	// by more than 2x.
	MinShards int
	MaxShards int
}

func (p Policy) withDefaults(initialShards int) Policy {
	if p.Streak <= 0 {
		p.Streak = 3
	}
	if p.IdleStreak <= 0 {
		p.IdleStreak = 4 * p.Streak
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 8
	}
	if p.QueueHigh == 0 {
		p.QueueHigh = shard.LaneDepth * 3 / 4
	}
	if p.ImbalanceHigh <= 1 {
		p.ImbalanceHigh = 1.4
	}
	if p.MinShards <= 0 {
		p.MinShards = 1
	}
	if p.MaxShards <= 0 {
		p.MaxShards = 4 * initialShards
		if p.MaxShards < 4 {
			p.MaxShards = 4
		}
	}
	return p
}

// Sample is one observation of the running engine, taken by the caller from
// its live statistics.
type Sample struct {
	Shards     int     // current shard count
	Imbalance  float64 // max/mean over per-shard loads (1 = balanced)
	QueueDepth int     // deepest instantaneous shard queue
	QueueHW    uint64  // highest per-shard queue high-water mark
	Rebalances int     // cumulative rebalance epochs
	Adaptive   bool    // adaptive rebalancing currently enabled
	Tuples     int     // cumulative tuples admitted
}

// Action is the kind of reconfiguration a Decision requests.
type Action int

const (
	// ActionNone: no change (never returned with ok=true).
	ActionNone Action = iota
	// ActionGrowShards requests a shard-count increase to Decision.Shards.
	ActionGrowShards
	// ActionShrinkShards requests a shard-count decrease to Decision.Shards.
	ActionShrinkShards
	// ActionEnableRebalance requests turning on adaptive rebalancing.
	ActionEnableRebalance
)

// String names the action for logs and metrics labels.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionGrowShards:
		return "grow-shards"
	case ActionShrinkShards:
		return "shrink-shards"
	case ActionEnableRebalance:
		return "enable-rebalance"
	default:
		return "unknown"
	}
}

// Decision is one reconfiguration request, with the evidence that triggered
// it (Reason is for operators: logs, /tuning, -stats-every).
type Decision struct {
	Action Action
	Shards int // target shard count for the grow/shrink actions
	Reason string
}

// Controller is the hysteresis + cooldown decision engine: feed it periodic
// Samples via Observe and apply the Decisions it emits. It is a plain state
// machine — no goroutines, no locks — so the caller owns the cadence and the
// synchronization.
type Controller struct {
	pol     Policy
	started bool

	lastHW     uint64 // de-latches the monotone high-water mark
	lastReb    int    // de-latches the cumulative rebalance count
	lastTuples int    // progress gate: no traffic, no judgement

	queueStreak int
	imbStreak   int
	idleStreak  int
	cooldown    int // samples remaining before the next decision may fire
}

// NewController builds a controller with the policy's defaults filled in
// lazily from the first observed shard count.
func NewController(pol Policy) *Controller {
	return &Controller{pol: pol}
}

// Observe feeds one sample and returns a reconfiguration decision when the
// evidence clears the hysteresis and cooldown bars. At most one decision is
// emitted per call; after an emitted decision the controller resets its
// streaks and enters cooldown, assuming the caller applies it (a caller that
// drops a decision simply pays one cooldown for nothing).
func (c *Controller) Observe(s Sample) (Decision, bool) {
	if !c.started {
		c.pol = c.pol.withDefaults(s.Shards)
		c.started = true
	}
	hwRose := s.QueueHW != c.lastHW // reshapes reset the mark, hence != not >
	rebalanced := s.Rebalances != c.lastReb
	progressed := s.Tuples != c.lastTuples
	c.lastHW = s.QueueHW
	c.lastReb = s.Rebalances
	c.lastTuples = s.Tuples

	if !progressed {
		// No traffic since the last sample: the metrics are stale echoes,
		// not evidence. Idle streaks do not advance either — an idle
		// *producer* is not an underloaded engine.
		c.queueStreak, c.imbStreak, c.idleStreak = 0, 0, 0
		return Decision{}, false
	}

	// Queue pressure: the high-water mark is still being pushed up and the
	// instantaneous depth corroborates it.
	if hwRose && s.QueueHW >= c.pol.QueueHigh && s.QueueDepth > 0 {
		c.queueStreak++
	} else {
		c.queueStreak = 0
	}

	// Imbalance: sustained skew the static partitioning is not absorbing.
	// A rebalance epoch since the last sample resets the streak — the
	// adaptive layer is already on the case, give it time to act.
	if s.Imbalance >= c.pol.ImbalanceHigh && !rebalanced {
		c.imbStreak++
	} else {
		c.imbStreak = 0
	}

	// Idle: queues empty, mark not moving, load flat.
	if !hwRose && s.QueueDepth == 0 && s.Imbalance < c.pol.ImbalanceHigh {
		c.idleStreak++
	} else {
		c.idleStreak = 0
	}

	if c.cooldown > 0 {
		c.cooldown--
		return Decision{}, false
	}

	switch {
	case c.queueStreak >= c.pol.Streak && s.Shards < c.pol.MaxShards:
		target := min(c.pol.MaxShards, 2*s.Shards)
		return c.emit(Decision{
			Action: ActionGrowShards,
			Shards: target,
			Reason: fmt.Sprintf("queue high-water %d >= %d for %d samples", s.QueueHW, c.pol.QueueHigh, c.queueStreak),
		})
	case c.imbStreak >= c.pol.Streak && !s.Adaptive:
		return c.emit(Decision{
			Action: ActionEnableRebalance,
			Reason: fmt.Sprintf("imbalance %.2f >= %.2f for %d samples", s.Imbalance, c.pol.ImbalanceHigh, c.imbStreak),
		})
	case c.idleStreak >= c.pol.IdleStreak && s.Shards > c.pol.MinShards:
		target := max(c.pol.MinShards, s.Shards/2)
		return c.emit(Decision{
			Action: ActionShrinkShards,
			Shards: target,
			Reason: fmt.Sprintf("idle queues for %d samples", c.idleStreak),
		})
	}
	return Decision{}, false
}

func (c *Controller) emit(d Decision) (Decision, bool) {
	c.queueStreak, c.imbStreak, c.idleStreak = 0, 0, 0
	c.cooldown = c.pol.Cooldown
	return d, true
}
