package shard

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/metrics"
)

// Policy tunes the adaptive rebalancing layer. The zero value selects
// defaults sized from the run's windows.
type Policy struct {
	// MaxRatio is the load-imbalance trigger: a rebalance is requested when
	// max(shard load) / mean(shard load) since the last epoch reaches this
	// ratio (default 1.5; 1 = always imbalanced, len(shards) = never unless
	// one shard takes everything).
	MaxRatio float64
	// MinGap is the minimum number of arrivals between consecutive
	// rebalances, and also the minimum routed volume before an imbalance
	// judgement is trusted. It bounds migration overhead: each epoch
	// rebuilds at most WR+WS resident tuples, so a gap of several windows
	// keeps the amortized cost per arrival small (default 8x the larger
	// window).
	MinGap int
	// SampleSize is the length of the recent-key ring the new boundaries
	// are computed from (default 4096).
	SampleSize int
	// ForceEvery, when positive, rebalances unconditionally every that many
	// arrivals instead of consulting the load monitor. Deterministic, so
	// tests and demos can pin epochs to exact stream positions.
	ForceEvery int
	// Interval is the load monitor's polling period (default 200µs).
	Interval time.Duration
}

// withDefaults fills unset fields from the run configuration.
func (p Policy) withDefaults(cfg Config) Policy {
	if p.MaxRatio <= 1 {
		p.MaxRatio = 1.5
	}
	if p.MinGap <= 0 {
		w := cfg.WR
		if !cfg.Self && cfg.WS > w {
			w = cfg.WS
		}
		p.MinGap = 8 * w
	}
	if p.SampleSize <= 0 {
		p.SampleSize = 4096
	}
	if p.Interval <= 0 {
		p.Interval = 200 * time.Microsecond
	}
	return p
}

// rebalancer is the monitor goroutine of the adaptive layer. It periodically
// reads the per-shard load counters and, when the imbalance ratio crosses the
// policy threshold, raises the want flag. The router polls the flag at Push
// boundaries and performs the actual epoch there — the monitor never touches
// engines, so all engine state stays single-writer.
type rebalancer struct {
	stats *loadStats
	pol   Policy
	want  atomic.Bool
	done  chan struct{}
	wg    sync.WaitGroup
}

func startRebalancer(stats *loadStats, pol Policy) *rebalancer {
	rb := &rebalancer{stats: stats, pol: pol, done: make(chan struct{})}
	rb.wg.Add(1)
	go rb.loop()
	return rb
}

func (rb *rebalancer) loop() {
	defer rb.wg.Done()
	tick := time.NewTicker(rb.pol.Interval)
	defer tick.Stop()
	for {
		select {
		case <-rb.done:
			return
		case <-tick.C:
			if rb.want.Load() {
				continue // previous request not yet picked up
			}
			loads := rb.stats.loads()
			var total uint64
			for _, l := range loads {
				total += l
			}
			if total < uint64(rb.pol.MinGap) {
				continue // not enough signal since the last epoch
			}
			if metrics.Imbalance(loads) >= rb.pol.MaxRatio {
				rb.want.Store(true)
			}
		}
	}
}

func (rb *rebalancer) stop() {
	close(rb.done)
	rb.wg.Wait()
}

// boundsFromSample recomputes shard boundaries as the k-quantiles of the
// recent-key sample. Returns ok=false when the sample is too thin to place
// boundaries.
func boundsFromSample(sample []uint32, k int) (Partitioner, bool) {
	if len(sample) < 2*k || k <= 1 {
		return nil, false
	}
	return NewQuantilePartitioner(sample, k), true
}

// samePartition reports whether a freshly computed quantile partitioner has
// identical boundaries to the installed one, in which case the migration
// epoch can be skipped outright.
func samePartition(old Partitioner, next QuantilePartitioner) bool {
	prev, ok := old.(QuantilePartitioner)
	if !ok || len(prev.bounds) != len(next.bounds) {
		return false
	}
	for i := range prev.bounds {
		if prev.bounds[i] != next.bounds[i] {
			return false
		}
	}
	return true
}

// migrate redistributes every live window tuple from the src engines across
// the dst engines according to the new partitioner and returns how many
// tuples changed shards. wms holds the per-slot global eviction watermarks —
// head - window clamped at zero for count windows, the timestamp watermark
// for timed ones; tuples below the watermark are expired and dropped instead
// of migrated.
//
// When src and dst are the same engine set (a rebalance epoch), each slot is
// reset in place between extraction and adoption. When dst is a fresh set (a
// reshape epoch changing the shard count), the fresh stores only have their
// starting watermark installed. Either way the caller must hold every worker
// quiescent at the drain barrier: migration reads and rebuilds engine stores
// and indexes directly on the router goroutine, and the barrier's WaitGroup
// edges give it the happens-before ordering with both the workers' prior
// writes and their next batch receive.
func migrate(src, dst []*engine, newPart Partitioner, wms [2]uint64) (moved int) {
	inPlace := len(src) == len(dst) && len(src) > 0 && src[0] == dst[0]
	for slot := 0; slot < storeSlots(dst[0].cfg.Self); slot++ {
		var live []migrant
		for s, e := range src {
			live = e.extractLive(slot, wms[slot], s, live)
		}
		// Each shard's extract is seq-ordered; the concatenation is not.
		// The ring stores require monotone seqs, so order globally.
		sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
		if inPlace {
			for _, e := range dst {
				e.resetSlot(slot, wms[slot])
			}
		} else {
			for _, e := range dst {
				if wms[slot] > e.stores[slot].wm {
					e.stores[slot].wm = wms[slot]
				}
			}
		}
		for _, m := range live {
			d := Clamp(newPart.ShardOf(m.key), len(dst))
			if d != m.src {
				moved++
			}
			dst[d].adopt(slot, m)
		}
	}
	for _, e := range dst {
		e.updateResident()
	}
	return moved
}
