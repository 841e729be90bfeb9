package bench

import (
	"context"
	"io"
	"log"
	"time"

	"pimtree"
	"pimtree/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "abl-alloc",
		Title: "ablation: steady-state GC pressure of the hot path (allocs/tuple)",
		Run:   runAblAlloc,
	})
}

// runAblAlloc measures the steady-state allocation rate of ingest → probe →
// match emission: each runtime is warmed past one full eviction cycle (and,
// for the sharded engine, one full queue-ring cycle), then the
// runtime/metrics allocation counters are diffed across a measured run. The
// workload is periodic (keys cycle with the window size) so the indexes
// mutate leaf-locally — the structural steady state where the hot path is
// expected to allocate nothing. These are the abl-alloc cells CI's
// alloc-gate job compares against the committed baseline; the per-tuple
// columns gate on increase (see cmd/benchgate).
func runAblAlloc(cfg Config, out io.Writer) {
	w := 1 << 10
	n := cfg.tuplesFor(w)
	header(out, "abl-alloc", "steady-state GC pressure at w="+wLabel(w))
	row(out, "runtime", "Mtps", "allocs/tuple", "B/tuple", "gc cycles")

	runtimes := []struct {
		name  string
		cfg   pimtree.Config
		chunk int // 0 = per-tuple Push
	}{
		{"serial", pimtree.Config{
			Mode:    pimtree.ModeSerial,
			WindowR: w, WindowS: w,
			Backend: pimtree.BPlusTree,
		}, 0},
		{"fanout", pimtree.Config{
			Mode:    pimtree.ModeSerial,
			WindowR: w, WindowS: w, Diff: 8,
			Backend: pimtree.BPlusTree,
		}, 0},
		{"sharded", pimtree.Config{
			Mode:    pimtree.ModeSharded,
			WindowR: w, WindowS: w,
			Backend:       pimtree.BPlusTree,
			Shards:        cfg.threads(),
			QueueCapacity: 256, // small ring so the warmup covers a full slot cycle
		}, 256},
	}
	for _, rt := range runtimes {
		mtps, apt, bpt, cycles := measureAlloc(rt.cfg, w, n, rt.chunk)
		row(out, rt.name, mtps, apt, bpt, int(cycles))
	}
}

// measureAlloc opens one engine session, warms it to structural steady
// state, then pushes n tuples of the periodic workload and returns the
// session's throughput together with the process-wide allocation deltas
// normalized per tuple.
func measureAlloc(cfg pimtree.Config, w, n, chunk int) (mtps, allocsPerTuple, bytesPerTuple float64, gcCycles uint64) {
	var matches uint64
	cfg.OnMatch = func(pimtree.Match) { matches++ }
	e, err := pimtree.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var k uint64
	next := func() pimtree.Arrival {
		s := pimtree.R
		if k%2 == 1 {
			s = pimtree.S
		}
		a := pimtree.Arrival{Stream: s, Key: uint32((k / 2) % uint64(w))}
		k++
		return a
	}
	bg := context.Background()
	var batch []pimtree.Arrival
	if chunk > 0 {
		batch = make([]pimtree.Arrival, chunk)
	}
	push := func(count int) {
		if chunk <= 0 {
			for i := 0; i < count; i++ {
				a := next()
				if err := e.Push(a.Stream, a.Key); err != nil {
					log.Fatal(err)
				}
			}
			return
		}
		for done := 0; done < count; {
			m := chunk
			if count-done < m {
				m = count - done
			}
			for i := 0; i < m; i++ {
				batch[i] = next()
			}
			if err := e.PushBatch(batch[:m]); err != nil {
				log.Fatal(err)
			}
			done += m
		}
	}
	// Warm past many eviction cycles so every structural allocation (index
	// nodes, ring buffers, free-lists, probe scratch) has happened. A shard's
	// batch free list fills only as deep as its lane has backed up, and
	// with every shard busy a lane first hits its deepest backlog only
	// after some 10^5 tuples.
	push(1 << 18)
	if err := e.Drain(bg); err != nil {
		log.Fatal(err)
	}

	base := metrics.ReadGC()
	start := time.Now()
	push(n)
	if err := e.Drain(bg); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	d := metrics.ReadGC().Sub(base)
	if _, err := e.Close(bg); err != nil {
		log.Fatal(err)
	}
	if matches == 0 {
		log.Fatalf("bench: abl-alloc produced no matches (w=%d)", w)
	}
	return float64(n) / elapsed.Seconds() / 1e6,
		float64(d.AllocObjects) / float64(n),
		float64(d.AllocBytes) / float64(n),
		d.GCCycles
}
