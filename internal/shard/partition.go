package shard

import "sort"

// Partitioner maps join keys to shards. Implementations must be monotone:
// shard i owns a contiguous key range and ranges are ordered by shard id, so
// any key interval [lo, hi] maps to the contiguous shard interval
// [ShardOf(lo), ShardOf(hi)]. The router relies on this to fan a band probe
// out to exactly the shards whose range intersects the probe interval.
//
// The router's own default, a striped RangePartitioner, is the one exception:
// it deals narrow stripes to the shards round-robin, and the router fans out
// over stripes instead of shards (see piece).
type Partitioner interface {
	// Shards returns the number of shards the partitioner routes to.
	Shards() int
	// ShardOf returns the shard owning key, in [0, Shards()).
	ShardOf(key uint32) int
}

// stripeBands is how many band widths (2·Diff+1 keys) a stripe spans at
// least. A probe straddles a stripe edge only when its band covers one, so at
// most 1/stripeBands of probes fan out to a second shard; and since a stripe
// is wider than a band, no probe spans more than two stripes.
const stripeBands = 256

// RangePartitioner splits the full uint32 key domain into n equal-width
// stripes and deals them to k shards round-robin: stripe p = key·n >> 32 is
// owned by shard p mod k. With n = k (NewRangePartitioner) every shard owns
// one contiguous range — the monotone equal-width split. The router's default
// (newStripedPartitioner) picks n = k·2^j as large as the band allows, so a
// hot key band much narrower than the domain still covers stripes of every
// shard.
type RangePartitioner struct {
	k int
	n int // stripe count, a multiple of k
}

// NewRangePartitioner returns an equal-width partitioner over k shards, one
// contiguous range each.
func NewRangePartitioner(k int) RangePartitioner {
	if k <= 0 {
		panic("shard: partitioner needs at least one shard")
	}
	return RangePartitioner{k: k, n: k}
}

// newStripedPartitioner returns the router's default over k shards for a band
// of half-width diff: n = k·2^j stripes with j the largest value for which a
// stripe is at least stripeBands bands wide. j = 0 (a band too wide for any
// finer split) and k = 1 (nothing to spread) give NewRangePartitioner(k).
func newStripedPartitioner(k int, diff uint32) RangePartitioner {
	p := NewRangePartitioner(k)
	if k == 1 {
		return p
	}
	minWidth := stripeBands * (2*uint64(diff) + 1)
	for uint64(2*p.n)*minWidth <= 1<<32 {
		p.n *= 2
	}
	return p
}

// Shards returns the shard count.
func (p RangePartitioner) Shards() int { return p.k }

// ShardOf returns the owner of key's stripe. With n = k that is
// floor(key * k / 2^32), which is monotone in key.
func (p RangePartitioner) ShardOf(key uint32) int {
	return p.stripe(key) % p.k
}

// stripe returns the stripe holding key: floor(key * n / 2^32).
func (p RangePartitioner) stripe(key uint32) int {
	return int(uint64(key) * uint64(p.n) >> 32)
}

// Range returns the inclusive key range [lo, hi] owned by a shard. Only an
// unstriped partitioner (n = k, from NewRangePartitioner) has one.
func (p RangePartitioner) Range(shard int) (lo, hi uint32) {
	lo = rangeStart(shard, p.k)
	if shard == p.k-1 {
		return lo, ^uint32(0)
	}
	return lo, rangeStart(shard+1, p.k) - 1
}

// rangeStart is the smallest key with ShardOf(key) == shard:
// ceil(shard * 2^32 / k).
func rangeStart(shard, k int) uint32 {
	return uint32((uint64(shard)<<32 + uint64(k) - 1) / uint64(k))
}

// piece returns the fan-out unit holding key: its stripe under a
// RangePartitioner, its shard under any other (monotone) partitioner. Pieces
// ascend with the key, piece p is owned by shard p mod k, and a band probe
// visits pieces piece(lo)..piece(hi) in order.
func piece(part Partitioner, key uint32, k int) int {
	if rp, ok := part.(RangePartitioner); ok {
		return rp.stripe(key)
	}
	return Clamp(part.ShardOf(key), k)
}

// QuantilePartitioner splits the key domain at observed quantiles of a key
// sample, so each shard receives a comparable tuple rate even when the key
// distribution is heavily skewed (the Gaussian and Gamma workloads of
// Figure 12b concentrate most keys in a narrow band, which would leave
// equal-width shards idle). The striped default already spreads any hot band
// wider than a few stripes; quantile boundaries still help when a static skew
// is narrower than one stripe.
type QuantilePartitioner struct {
	// bounds[i] is the first key owned by shard i+1; shard 0 starts at 0.
	// Strictly increasing.
	bounds []uint32
}

// NewQuantilePartitioner builds a partitioner with up to k shards whose
// boundaries are the k-quantiles of the sample. Duplicate quantiles (very
// heavy skew) collapse, so the effective shard count may be lower; Shards
// reports the effective count.
func NewQuantilePartitioner(sample []uint32, k int) QuantilePartitioner {
	if k <= 0 {
		panic("shard: partitioner needs at least one shard")
	}
	if len(sample) == 0 || k == 1 {
		return QuantilePartitioner{}
	}
	sorted := append([]uint32(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var bounds []uint32
	for i := 1; i < k; i++ {
		b := sorted[i*len(sorted)/k]
		if b > 0 && (len(bounds) == 0 || b > bounds[len(bounds)-1]) {
			bounds = append(bounds, b)
		}
	}
	return QuantilePartitioner{bounds: bounds}
}

// Shards returns the effective shard count.
func (p QuantilePartitioner) Shards() int { return len(p.bounds) + 1 }

// ShardOf returns the index of the range containing key.
func (p QuantilePartitioner) ShardOf(key uint32) int {
	return sort.Search(len(p.bounds), func(i int) bool { return key < p.bounds[i] })
}

// Range returns the inclusive key range [lo, hi] owned by a shard.
func (p QuantilePartitioner) Range(shard int) (lo, hi uint32) {
	if shard > 0 {
		lo = p.bounds[shard-1]
	}
	if shard == len(p.bounds) {
		return lo, ^uint32(0)
	}
	return lo, p.bounds[shard] - 1
}
