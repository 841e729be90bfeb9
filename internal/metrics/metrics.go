// Package metrics provides the measurement plumbing for the reproduction:
//
//   - a software memory-traffic tracer that substitutes for the hardware
//     memory-bandwidth counters used in the paper's Figure 11d,
//   - small helpers for expressing throughput in million tuples per second,
//     the unit used by every figure in the paper,
//   - the instruments of the service and its load harness: a log-bucketed
//     latency histogram, GC readings, padded per-shard counters with their
//     imbalance, and a Prometheus text writer.
//
// The instruments only the paper's figures use, the step timer of Figure 9b
// and the latency sampler of Figure 10d, are in internal/paper.
package metrics

import (
	"sync/atomic"
	"time"
)

// Tracing enables the software memory-traffic tracer. It must only be toggled
// while no traced operation is running (the harness sets it before starting
// worker goroutines and reads counters after joining them, so the accesses
// are ordered by goroutine creation/join).
var Tracing bool

var (
	loadBytes  atomic.Uint64
	storeBytes atomic.Uint64
)

// Load records n bytes of data-structure reads when tracing is enabled.
func Load(n int) {
	if Tracing {
		loadBytes.Add(uint64(n))
	}
}

// Store records n bytes of data-structure writes when tracing is enabled.
func Store(n int) {
	if Tracing {
		storeBytes.Add(uint64(n))
	}
}

// ResetTraffic zeroes the load/store counters.
func ResetTraffic() {
	loadBytes.Store(0)
	storeBytes.Store(0)
}

// Traffic is a snapshot of traced memory traffic.
type Traffic struct {
	LoadBytes  uint64
	StoreBytes uint64
}

// SnapshotTraffic returns the current load/store byte counts.
func SnapshotTraffic() Traffic {
	return Traffic{LoadBytes: loadBytes.Load(), StoreBytes: storeBytes.Load()}
}

// Bandwidth converts a byte count observed over an elapsed duration into
// gigabytes per second, the unit of Figure 11d.
func Bandwidth(bytes uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / 1e9
}

// Mtps converts a tuple count over an elapsed duration into million tuples
// per second, the throughput unit used by every figure.
func Mtps(tuples int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(tuples) / elapsed.Seconds() / 1e6
}

// PaddedCounter is a cache-line padded atomic counter. Arrays of these back
// per-shard load accounting: each shard's counter is written by the routing
// goroutine and read concurrently by a monitor, and the padding keeps
// adjacent shards' counters out of the same cache line.
type PaddedCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// Add increments the counter by n.
func (c *PaddedCounter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *PaddedCounter) Load() uint64 { return c.v.Load() }

// Store sets the counter to n.
func (c *PaddedCounter) Store(n uint64) { c.v.Store(n) }

// Imbalance reports how unevenly a load vector is spread: the ratio of the
// maximum entry to the mean entry. 1 means perfectly balanced, len(loads)
// means all load on one entry. Empty or all-zero input reports 0 (no load,
// nothing to balance).
func Imbalance(loads []uint64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var max, sum uint64
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(loads))
	return float64(max) / mean
}
