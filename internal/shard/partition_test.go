package shard

import (
	"testing"

	"pimtree/internal/join"
	"pimtree/internal/stream"
)

func TestRangePartitionerCoversDomain(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16, 64} {
		p := NewRangePartitioner(k)
		if p.Shards() != k {
			t.Fatalf("k=%d: Shards() = %d", k, p.Shards())
		}
		prevHi := int64(-1)
		for s := 0; s < k; s++ {
			lo, hi := p.Range(s)
			if int64(lo) != prevHi+1 {
				t.Fatalf("k=%d shard %d: range starts at %d, want %d", k, s, lo, prevHi+1)
			}
			if lo > hi {
				t.Fatalf("k=%d shard %d: empty range [%d, %d]", k, s, lo, hi)
			}
			if got := p.ShardOf(lo); got != s {
				t.Fatalf("k=%d: ShardOf(lo=%d) = %d, want %d", k, lo, got, s)
			}
			if got := p.ShardOf(hi); got != s {
				t.Fatalf("k=%d: ShardOf(hi=%d) = %d, want %d", k, hi, got, s)
			}
			prevHi = int64(hi)
		}
		if prevHi != int64(^uint32(0)) {
			t.Fatalf("k=%d: domain ends at %d", k, prevHi)
		}
	}
}

func TestRangePartitionerMonotone(t *testing.T) {
	p := NewRangePartitioner(13)
	gen := stream.NewUniform(7)
	prevKey, prevShard := uint32(0), 0
	for i := 0; i < 2000; i++ {
		k := gen.Next()
		s := p.ShardOf(k)
		if s < 0 || s >= 13 {
			t.Fatalf("ShardOf(%d) = %d out of range", k, s)
		}
		if (k < prevKey) != (s <= prevShard) && s != prevShard {
			// Full monotonicity check below; this loop just exercises bounds.
			_ = s
		}
		prevKey, prevShard = k, s
	}
	// Monotone along an increasing key walk.
	prev := 0
	for k := uint64(0); k <= uint64(^uint32(0)); k += 1 << 24 {
		s := p.ShardOf(uint32(k))
		if s < prev {
			t.Fatalf("ShardOf not monotone at key %d: %d after %d", k, s, prev)
		}
		prev = s
	}
}

// TestStripedPartitioner pins the router's default: n = k·2^j stripes, the
// plain equal-width split once the band is too wide to stripe, at most two
// stripes with distinct owners per band, and no probe op reaching one shard
// twice.
func TestStripedPartitioner(t *testing.T) {
	const top = ^uint32(0)
	for _, k := range []int{1, 2, 3, 4, 8} {
		// fallback is the smallest Diff that leaves n = k: a stripe must be
		// stripeBands·(2·Diff+1) keys wide, and k·2 stripes no longer fit.
		lim := uint64(1<<32) / uint64(2*stripeBands*k)
		fallback := uint32((lim + 1) / 2)
		for _, diff := range []uint32{0, 1, 16, 4095, 8192, 1 << 16, fallback - 1, fallback, 1 << 30, top} {
			p := newStripedPartitioner(k, diff)
			if p.Shards() != k || p.n%k != 0 {
				t.Fatalf("k=%d diff=%d: %d shards over %d stripes", k, diff, p.Shards(), p.n)
			}
			eq := NewRangePartitioner(k)
			if k == 1 || diff >= fallback {
				if p.n != k {
					t.Fatalf("k=%d diff=%d: %d stripes, want the unstriped %d", k, diff, p.n, k)
				}
				for key := uint64(0); key <= uint64(top); key += 1<<32/97 + 1 {
					if p.ShardOf(uint32(key)) != eq.ShardOf(uint32(key)) {
						t.Fatalf("k=%d diff=%d: ShardOf(%d) differs from NewRangePartitioner", k, diff, key)
					}
				}
			} else if width := uint64(1<<32) / uint64(p.n); width < stripeBands*(2*uint64(diff)+1) || width >= 2*stripeBands*(2*uint64(diff)+1) {
				t.Fatalf("k=%d diff=%d: stripe width %d, want the narrowest of at least %d bands", k, diff, width, stripeBands)
			}
			if diff == fallback-1 && k > 1 && p.n != 2*k {
				t.Fatalf("k=%d diff=%d: %d stripes just below the fallback, want %d", k, diff, p.n, 2*k)
			}

			// Bands centred on every kind of edge: domain ends, stripe
			// starts and ends, and the keys a band's reach from them.
			keys := []uint32{0, 1, top, top - 1, diff, top - diff}
			for _, s := range []int{1, p.n / 2, p.n - 1} {
				if s <= 0 || s >= p.n {
					continue
				}
				e := rangeStart(s, p.n)
				keys = append(keys, e, e-1, e+diff/2, e-diff/2-1)
			}
			band := join.Band{Diff: diff}
			r := NewRouter(Config{Shards: k, BatchSize: 1 << 20, WR: 16, WS: 16, Band: band, Index: join.IndexBTree}, len(keys))
			if r.part != Partitioner(p) {
				t.Fatalf("k=%d diff=%d: router default %+v, want %+v", k, diff, r.part, p)
			}
			for _, key := range keys {
				lo, hi := band.Range(key)
				s1, s2 := p.stripe(lo), p.stripe(hi)
				if p.n > k && (s2-s1 > 1 || s1 != s2 && s1%k == s2%k) {
					t.Fatalf("k=%d diff=%d key=%d: band spans stripes %d..%d", k, diff, key, s1, s2)
				}
				before := append([]int(nil), r.probeRouted...)
				r.Push(stream.Arrival{Stream: stream.StreamR, Key: key})
				ops := 0
				for d := range before {
					n := r.probeRouted[d] - before[d]
					if n > 1 {
						t.Fatalf("k=%d diff=%d key=%d: shard %d got %d probe ops", k, diff, key, d, n)
					}
					ops += n
				}
				if ops != s2-s1+1 {
					t.Fatalf("k=%d diff=%d key=%d: %d probe ops, want one per stripe %d..%d", k, diff, key, ops, s1, s2)
				}
			}
			r.Close()
		}
	}
}

func TestQuantilePartitionerBalancesSkew(t *testing.T) {
	// A Gaussian sample concentrates keys around the mean; quantile
	// boundaries should split the load far more evenly than equal-width
	// ranges do.
	gen := stream.NewGaussian(11, 0.5, 0.125)
	sample := make([]uint32, 1<<14)
	for i := range sample {
		sample[i] = gen.Next()
	}
	const k = 8
	qp := NewQuantilePartitioner(sample, k)
	if qp.Shards() != k {
		t.Fatalf("effective shards = %d, want %d (sample should have distinct quantiles)", qp.Shards(), k)
	}

	counts := make([]int, k)
	test := stream.NewGaussian(12, 0.5, 0.125)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		counts[qp.ShardOf(test.Next())]++
	}
	for s, c := range counts {
		if c < n/(4*k) || c > n*4/k {
			t.Fatalf("shard %d holds %d of %d keys — quantile split failed: %v", s, c, n, counts)
		}
	}

	// Ranges are contiguous and consistent with ShardOf.
	prevHi := int64(-1)
	for s := 0; s < qp.Shards(); s++ {
		lo, hi := qp.Range(s)
		if int64(lo) != prevHi+1 {
			t.Fatalf("shard %d starts at %d, want %d", s, lo, prevHi+1)
		}
		if qp.ShardOf(lo) != s || qp.ShardOf(hi) != s {
			t.Fatalf("shard %d range [%d,%d] not owned by itself", s, lo, hi)
		}
		prevHi = int64(hi)
	}
	if prevHi != int64(^uint32(0)) {
		t.Fatalf("domain ends at %d", prevHi)
	}
}

func TestQuantilePartitionerDegenerateSample(t *testing.T) {
	// All-identical sample: every quantile collapses; one shard remains.
	sample := make([]uint32, 100)
	for i := range sample {
		sample[i] = 42
	}
	qp := NewQuantilePartitioner(sample, 8)
	if qp.Shards() < 1 || qp.Shards() > 2 {
		t.Fatalf("degenerate sample gave %d shards", qp.Shards())
	}
	for _, key := range []uint32{0, 41, 42, 43, ^uint32(0)} {
		if s := qp.ShardOf(key); s < 0 || s >= qp.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range", key, s)
		}
	}
	if NewQuantilePartitioner(nil, 4).Shards() != 1 {
		t.Fatal("empty sample should collapse to one shard")
	}
}
