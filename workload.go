package pimtree

import (
	"pimtree/internal/stream"
)

// KeySource produces a stream of join-attribute values. All sources returned
// by this package are deterministic for a given seed.
type KeySource interface {
	Next() uint32
}

// KeySpace is the scale unit of the join-attribute domain: uniform keys lie
// in [0, KeySpace); skewed and drifting sources may emit keys up to twice
// that (distribution values in [0, 2) map linearly onto uint32), which keeps
// a drifting Gaussian inside the domain at the paper's fastest drift rate.
const KeySpace = stream.KeySpace

// UniformSource draws keys uniformly from [0, KeySpace). KeySpace is 2^31,
// half the domain RangePartition splits into equal ranges, so under it these
// keys leave the upper half of the shards empty; the default partitioner's
// stripes spread them.
func UniformSource(seed int64) KeySource { return stream.NewUniform(seed) }

// GaussianSource draws keys from N(mu, sigma) over the unit interval scaled
// to the key space (the paper's skew workload uses mu=0.5, sigma=0.125).
func GaussianSource(seed int64, mu, sigma float64) KeySource {
	return stream.NewGaussian(seed, mu, sigma)
}

// GammaSource draws keys from a normalized Gamma(k, theta) distribution.
func GammaSource(seed int64, k, theta float64) KeySource {
	return stream.NewGamma(seed, k, theta)
}

// DriftingGaussianSource reproduces the paper's three-phase drifting
// workload: fixed N(0.5, 0.125) for phase1 tuples, a linear mean drift to
// 0.5+r over phase2 tuples, then fixed at the shifted mean.
func DriftingGaussianSource(seed int64, r float64, phase1, phase2 int) KeySource {
	return stream.NewShiftingGaussian(seed, r, phase1, phase2)
}

// StepSkewSource draws keys uniformly from a narrow hot band (width is the
// band's fraction of the key domain) whose location jumps to a fresh
// position every period tuples. It is the adversarial workload for
// contiguous key-range sharding.
func StepSkewSource(seed int64, width float64, period int) KeySource {
	return stream.NewStepSkew(seed, width, period)
}

// DriftingHotspotSource sweeps a narrow hot band (width as a fraction of the
// key domain) linearly across the domain, wrapping, with period tuples per
// full sweep — the smooth counterpart of StepSkewSource.
func DriftingHotspotSource(seed int64, width float64, period int) KeySource {
	return stream.NewDriftingHotspot(seed, width, period)
}

// Interleave merges two key sources into n arrivals where shareS is the
// probability the next tuple belongs to stream S (0.5 = symmetric).
func Interleave(seed int64, r, s KeySource, shareS float64, n int) []Arrival {
	in := stream.NewInterleaver(seed, r, s, shareS)
	out := make([]Arrival, n)
	for i := range out {
		a := in.Next()
		out[i] = Arrival{Stream: StreamID(a.Stream), Key: a.Key}
	}
	return out
}

// SelfArrivals materializes n tuples of a single stream for self-joins.
func SelfArrivals(src KeySource, n int) []Arrival {
	out := make([]Arrival, n)
	for i := range out {
		out[i] = Arrival{Stream: R, Key: src.Next()}
	}
	return out
}

// TimestampArrivals assigns sorted event times to an arrival sequence:
// consecutive gaps are drawn uniformly from [1, 2*meanGap-1] (strictly
// increasing timestamps), turning any count-based workload into input for
// the time-based joins.
func TimestampArrivals(seed int64, arrivals []Arrival, meanGap uint64) []TimedArrival {
	in := make([]stream.Arrival, len(arrivals))
	for i, a := range arrivals {
		in[i] = stream.Arrival{Stream: uint8(a.Stream), Key: a.Key}
	}
	timed := stream.Timestamp(seed, in, meanGap)
	out := make([]TimedArrival, len(timed))
	for i, t := range timed {
		out[i] = TimedArrival{Stream: StreamID(t.Stream), Key: t.Key, TS: t.TS}
	}
	return out
}

// ShuffleWithinSlack applies a bounded-disorder perturbation to a timed
// arrival sequence: tuples are stably re-sorted by ts + U[0, slack], so the
// result's maximum event-time lateness is bounded by slack. It is the
// workload generator for the out-of-order ingestion layer: any time-based
// runtime configured with at least that Slack joins the shuffled sequence
// exactly as the original.
func ShuffleWithinSlack(seed int64, arrivals []TimedArrival, slack uint64) []TimedArrival {
	in := make([]stream.TimedArrival, len(arrivals))
	for i, a := range arrivals {
		in[i] = stream.TimedArrival{Stream: uint8(a.Stream), Key: a.Key, TS: a.TS}
	}
	shuffled := stream.ShuffleWithinSlack(seed, in, slack)
	out := make([]TimedArrival, len(shuffled))
	for i, t := range shuffled {
		out[i] = TimedArrival{Stream: StreamID(t.Stream), Key: t.Key, TS: t.TS}
	}
	return out
}

// DiffForMatchRate returns the band half-width that yields an expected match
// rate of sigmaS against a window of w uniform keys (closed form).
func DiffForMatchRate(w int, sigmaS float64) uint32 {
	return stream.UniformDiff(w, sigmaS)
}

// CalibrateDiff empirically finds the band half-width hitting a target match
// rate for an arbitrary key distribution (the paper's diff adjustment for
// skewed workloads).
func CalibrateDiff(mk func(seed int64) KeySource, w int, sigmaS float64) uint32 {
	return stream.CalibrateDiff(func(seed int64) stream.KeyGen { return mk(seed) }, w, sigmaS)
}
