package shard

import (
	"math/rand"
	"testing"
	"time"

	"pimtree/internal/join"
	"pimtree/internal/stream"
)

// engineMerges sums the merge statistics of an engine set, each engine's
// including what its own refills banked. The workers must be quiescent.
func engineMerges(engines []*engine) (n int, d time.Duration) {
	for _, e := range engines {
		m, t := e.merges()
		n, d = n+m, d+t
	}
	return n, d
}

// routerMerges is the merge total Close reports: what reshard banked plus
// every live engine's.
func routerMerges(r *Router) (int, time.Duration) {
	r.Drain()
	n, d := engineMerges(r.engines)
	return n + r.baseMerges, d + r.baseMergeTime
}

// TestRefillKeepsMergeTotals pins the merge banking of engine.load: every
// way a slot is refilled from existing tuples discards an index, and the
// merges that index ran must still be counted afterwards.
func TestRefillKeepsMergeTotals(t *testing.T) {
	const w = 192
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	arr := stream.NewInterleaver(3, stream.NewUniform(4), stream.NewUniform(5), 0.5).Take(20000)

	newMerging := func(t *testing.T) *Router {
		r := NewRouter(Config{Shards: 2, BatchSize: 16, WR: w, WS: w, Band: band, Index: join.IndexPIMTree}, 0)
		t.Cleanup(func() { r.Close() })
		for i, a := range arr {
			r.Push(a)
			if i%1000 == 999 {
				if n, _ := routerMerges(r); n > 0 {
					return r
				}
			}
		}
		t.Fatal("no merge ran")
		return nil
	}
	same := func(t *testing.T, what string, n0, n1 int, d0, d1 time.Duration) {
		t.Helper()
		if n1 != n0 || d1 != d0 {
			t.Fatalf("%s: merge total %d (%v) became %d (%v)", what, n0, d0, n1, d1)
		}
	}

	t.Run("reshape", func(t *testing.T) {
		r := newMerging(t)
		n0, d0 := routerMerges(r)
		r.Reshape(Reshape{Shards: 3})
		n1, d1 := routerMerges(r)
		same(t, "Reshape{Shards: 3}", n0, n1, d0, d1)
	})

	t.Run("reindex", func(t *testing.T) {
		r := newMerging(t)
		n0, d0 := routerMerges(r)
		for _, e := range r.engines {
			e.reindex(0)
			e.reindex(1)
		}
		n1, d1 := routerMerges(r)
		same(t, "reindex", n0, n1, d0, d1)
	})

	t.Run("handoff", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		orc := newMemberOracle(join.Band{Diff: 1 << 26}, w, w, false, false, 0)
		for i := 0; i < 3000; i++ {
			orc.push(uint8(rng.Intn(2)), rng.Uint32(), 0)
		}
		m := NewMember(MemberConfig{Shards: 3, WR: w, WS: w, Index: join.IndexPIMTree}, newResultSink().onResult)
		defer m.Close()
		applyAll(m, orc.ops, rng)
		n0, d0 := engineMerges(m.engines)
		if n0 == 0 {
			t.Fatal("no merge ran")
		}
		m.Reassign(0, 1, m.Reassign(0, 4, nil))
		n1, d1 := engineMerges(m.engines)
		same(t, "Reassign out + Reassign in", n0, n1, d0, d1)
	})
}
