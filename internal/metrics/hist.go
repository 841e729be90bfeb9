package metrics

import "math/bits"

// Histogram is an HDR-style log-bucketed latency histogram: values are
// non-negative int64 nanoseconds, bucketed exactly below histSubCount and
// geometrically above it with histSubBits significant bits per octave, so
// any recorded value is reproduced by Quantile with relative error at most
// 1/histSubCount (~1.6%) at fixed O(1) memory. Unlike a sampling reservoir
// it loses no observations, which is what an open-loop load harness needs:
// coordinated-omission-safe percentiles are only truthful if every stalled
// request is counted.
//
// A Histogram is not safe for concurrent use: one goroutine owns it.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    int64
	min    int64
	max    int64
}

const (
	// histSubBits is the number of significant value bits preserved per
	// bucket: 6 bits = 64 sub-buckets per octave = ≤1.5625% relative error.
	histSubBits  = 6
	histSubCount = 1 << histSubBits
	// histBuckets covers every non-negative int64: values below histSubCount
	// map exactly (one bucket each), each further octave (63-histSubBits of
	// them) adds histSubCount buckets.
	histBuckets = histSubCount + (63-histSubBits)*histSubCount
)

// histIndex maps a non-negative value to its bucket.
func histIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // ≥ histSubBits
	mant := int((uint64(v) >> (uint(exp) - histSubBits)) - histSubCount)
	return (exp-histSubBits)*histSubCount + histSubCount + mant
}

// histUpper returns the largest value mapping to bucket i — the bound
// Quantile reports, so estimates never undershoot the true quantile.
func histUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	exp := uint(i-histSubCount)/histSubCount + histSubBits
	mant := uint64(i-histSubCount)%histSubCount + histSubCount
	width := int64(1) << (exp - histSubBits)
	return int64(mant)<<(exp-histSubBits) + width - 1
}

// Record adds one observation. Negative values are clamped to zero (they
// can only arise from clock anomalies; losing them would undercount).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of the
// recorded values: the bucket upper bound of the value at rank
// ceil(q·count), clamped to the exact observed min and max. The bound is
// within a factor 1+1/histSubCount of the true rank value.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := uint64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank >= h.count {
		return h.max
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Reset returns the histogram to its empty state.
func (h *Histogram) Reset() { *h = Histogram{} }
