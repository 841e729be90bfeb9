package tune

import (
	"testing"

	"pimtree/internal/shard"
)

func TestResolveRuntime(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		want Runtime
	}{
		{"time window wins", Workload{TimeWindow: true, ChainedBackend: true, Cores: 8}, ShardedTime},
		{"chained forces serial", Workload{ChainedBackend: true, ShardedKnobs: true, Cores: 8}, Serial},
		{"sharded knobs", Workload{ShardedKnobs: true, SharedKnobs: true, Cores: 1}, Sharded},
		{"shared knobs", Workload{SharedKnobs: true, Cores: 8}, Shared},
		{"multicore default", Workload{Cores: 8}, Sharded},
		{"single core default", Workload{Cores: 1}, Serial},
	}
	for _, tc := range cases {
		if got := ResolveRuntime(tc.w); got != tc.want {
			t.Errorf("%s: ResolveRuntime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// base is a healthy sample the pressure tests perturb.
func base(tuples int) Sample {
	return Sample{Shards: 2, Imbalance: 1.05, QueueDepth: 0, QueueHW: 0, Tuples: tuples}
}

func TestControllerGrowOnQueuePressure(t *testing.T) {
	c := NewController(Policy{Streak: 3, Cooldown: 4, QueueHigh: 3, MaxShards: 8})
	tuples := 0
	press := func(hw uint64) Sample {
		tuples += 100
		s := base(tuples)
		s.QueueDepth = 3
		s.QueueHW = hw
		return s
	}
	for i := 0; i < 2; i++ {
		if d, ok := c.Observe(press(uint64(3 + i))); ok {
			t.Fatalf("decision %+v after %d samples, want streak of 3", d, i+1)
		}
	}
	d, ok := c.Observe(press(5))
	if !ok || d.Action != ActionGrowShards || d.Shards != 4 {
		t.Fatalf("got %+v ok=%v, want grow to 4", d, ok)
	}
	// Cooldown: sustained pressure must not fire again for Cooldown samples.
	for i := 0; i < 4; i++ {
		if d, ok := c.Observe(press(uint64(6 + i))); ok {
			t.Fatalf("decision %+v during cooldown (sample %d)", d, i)
		}
	}
	// Pressure sustained through the whole cooldown: the controller acts on
	// the first sample after it expires.
	if d, ok := c.Observe(press(10)); !ok || d.Action != ActionGrowShards {
		t.Fatalf("got %+v ok=%v, want grow after cooldown expiry", d, ok)
	}
}

func TestControllerGrowCapsAtMaxShards(t *testing.T) {
	c := NewController(Policy{Streak: 1, Cooldown: 1, QueueHigh: 1, MaxShards: 3})
	tuples := 0
	press := func(shards int, hw uint64) Sample {
		tuples += 100
		s := base(tuples)
		s.Shards = shards
		s.QueueDepth = 2
		s.QueueHW = hw
		return s
	}
	d, ok := c.Observe(press(2, 2))
	if !ok || d.Shards != 3 {
		t.Fatalf("got %+v ok=%v, want capped grow to 3", d, ok)
	}
	c.Observe(press(3, 3)) // burn the cooldown
	if d, ok := c.Observe(press(3, 4)); ok {
		t.Fatalf("grew past MaxShards: %+v", d)
	}
}

func TestControllerEnablesRebalanceOnImbalance(t *testing.T) {
	c := NewController(Policy{Streak: 3, Cooldown: 2, ImbalanceHigh: 1.4})
	tuples := 0
	skew := func(adaptive bool, rebalances int) Sample {
		tuples += 100
		s := base(tuples)
		s.Imbalance = 2.1
		s.Adaptive = adaptive
		s.Rebalances = rebalances
		return s
	}
	c.Observe(skew(false, 0))
	c.Observe(skew(false, 0))
	d, ok := c.Observe(skew(false, 0))
	if !ok || d.Action != ActionEnableRebalance {
		t.Fatalf("got %+v ok=%v, want enable-rebalance", d, ok)
	}
	// Already adaptive: imbalance alone must not re-fire.
	c2 := NewController(Policy{Streak: 1, Cooldown: 1, ImbalanceHigh: 1.4})
	if d, ok := c2.Observe(skew(true, 0)); ok {
		t.Fatalf("enable-rebalance on an adaptive engine: %+v", d)
	}
	// A rebalance epoch between samples resets the streak: the adaptive
	// layer is working, the controller must not pile on.
	c3 := NewController(Policy{Streak: 2, Cooldown: 1, ImbalanceHigh: 1.4})
	c3.Observe(skew(false, 0))
	if d, ok := c3.Observe(skew(false, 1)); ok {
		t.Fatalf("decision despite fresh rebalance: %+v", d)
	}
}

func TestControllerShrinksWhenIdle(t *testing.T) {
	c := NewController(Policy{Streak: 2, IdleStreak: 3, Cooldown: 1, MinShards: 1})
	tuples := 0
	idle := func(shards int) Sample {
		tuples += 10 // trickle: progressing but queues empty
		s := base(tuples)
		s.Shards = shards
		return s
	}
	c.Observe(idle(4))
	c.Observe(idle(4))
	d, ok := c.Observe(idle(4))
	if !ok || d.Action != ActionShrinkShards || d.Shards != 2 {
		t.Fatalf("got %+v ok=%v, want shrink to 2", d, ok)
	}
	// At MinShards the shrink rule disarms.
	c2 := NewController(Policy{IdleStreak: 1, Cooldown: 1, MinShards: 2})
	c2.Observe(idle(2))
	if d, ok := c2.Observe(idle(2)); ok {
		t.Fatalf("shrank below MinShards: %+v", d)
	}
}

func TestControllerIgnoresStalledProducer(t *testing.T) {
	c := NewController(Policy{IdleStreak: 2, Cooldown: 1})
	s := base(500)
	s.Shards = 4
	c.Observe(s)
	for i := 0; i < 10; i++ {
		if d, ok := c.Observe(s); ok { // same Tuples: no progress
			t.Fatalf("decision %+v from a stalled producer", d)
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults(4)
	if p.Streak != 3 || p.IdleStreak != 12 || p.Cooldown != 8 {
		t.Fatalf("cadence defaults: %+v", p)
	}
	if p.QueueHigh != shard.LaneDepth*3/4 || p.ImbalanceHigh != 1.4 {
		t.Fatalf("threshold defaults: %+v", p)
	}
	if p.MinShards != 1 || p.MaxShards != 16 {
		t.Fatalf("bound defaults: %+v", p)
	}
	if p2 := (Policy{}).withDefaults(0); p2.MaxShards != 4 {
		t.Fatalf("MaxShards floor: %d", p2.MaxShards)
	}
}
