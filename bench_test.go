// Benchmarks: one testing.B target per figure of the paper's evaluation
// (Figures 8a–14) plus the repository's ablations. Each benchmark runs a
// single representative configuration of the figure's sweep at a size that
// keeps `go test -bench=.` tractable; the full sweeps (the actual figure
// series) are produced by cmd/pimbench (see README.md).
//
// Throughput is additionally reported as Mtps (million tuples per second),
// the unit used by every figure.
package pimtree_test

import (
	"context"
	"math/rand/v2"
	"os"
	"testing"

	"pimtree"
	"pimtree/internal/bench"
	"pimtree/internal/chainindex"
	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/metrics"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

const benchWindow = 1 << 13

func benchArrivals(n int) []stream.Arrival {
	return stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.5).Take(n)
}

func benchSelf(n int) []stream.Arrival {
	return stream.NewSelfStream(stream.NewUniform(2)).Take(n)
}

func band(w int) join.Band { return join.Band{Diff: stream.UniformDiff(w, 2)} }

func tuples(b *testing.B) int {
	n := b.N
	if n < 1<<12 {
		n = 1 << 12
	}
	return n
}

func report(b *testing.B, st interface{ Mtps() float64 }) {
	b.ReportMetric(st.Mtps(), "Mtps")
}

// --- Figure 8: existing approaches ---

func BenchmarkFig08a_NLWJSingle(b *testing.B) {
	w := 1 << 10 // NLWJ is O(w) per tuple
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.NLWJ(arr[:b.N], join.SerialConfig{WR: w, WS: w, Band: band(w)}))
}

func BenchmarkFig08a_NLWJRoundRobin(b *testing.B) {
	w := 1 << 10
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunRR(arr[:b.N], paper.RRConfig{Cores: 2, WR: w, WS: w, Band: band(w)}))
}

func BenchmarkFig08a_IBWJSingleBTree(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
		WR: benchWindow, WS: benchWindow, Band: band(benchWindow), Index: join.IndexBTree,
	}))
}

func BenchmarkFig08a_IBWJRoundRobin(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunRR(arr[:b.N], paper.RRConfig{
		Cores: 2, WR: benchWindow, WS: benchWindow, Band: band(benchWindow), Indexed: true,
	}))
}

func BenchmarkFig08a_IBWJSharedBwTree(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.BwTree,
	}))
}

func BenchmarkFig08b_ChainIndex(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		variant chainindex.Variant
		l       int
	}{
		{"BChain_L2", chainindex.BChain, 2},
		{"BChain_L8", chainindex.BChain, 8},
		{"IBChain_L2", chainindex.IBChain, 2},
		{"IBChain_L8", chainindex.IBChain, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.IBWJChain(arr[:b.N], join.SerialConfig{
				WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
			}, cfg.variant, cfg.l))
		})
	}
}

func BenchmarkFig08c_PIMSerialDI(b *testing.B) {
	for di := 1; di <= 3; di++ {
		b.Run(diName(di), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
				WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
				Index: join.IndexPIMTree,
				PIM:   core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: di},
			}))
		})
	}
}

func diName(di int) string { return "DI" + string(rune('0'+di)) }

func BenchmarkFig08d_PIMParallelDI(b *testing.B) {
	for di := 1; di <= 3; di++ {
		b.Run(diName(di), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
				Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
				Band:  band(benchWindow),
				Index: paper.PIMTree,
				PIM:   core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: di},
			}))
		})
	}
}

// --- Figure 9: merge ratio and step costs ---

func BenchmarkFig09a_ParallelMergeRatio(b *testing.B) {
	for _, m := range []float64{1.0 / 64, 1.0 / 8, 1} {
		b.Run(ratioName(m), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
				Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
				Band:  band(benchWindow),
				Index: paper.PIMTree,
				PIM:   core.PIMTreeConfig{MergeRatio: m, InsertionDepth: 2},
			}))
		})
	}
}

func ratioName(m float64) string {
	switch m {
	case 1:
		return "m1"
	case 1.0 / 8:
		return "m1_8"
	default:
		return "m1_64"
	}
}

func BenchmarkFig09b_StepCosts(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	st := paper.StepCosts(arr[:b.N], join.SerialConfig{
		WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
		Index: join.IndexPIMTree, PIM: core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: 2},
	})
	b.ReportMetric(st.PerTuple(paper.StepSearch), "search-ns/tuple")
	b.ReportMetric(st.PerTuple(paper.StepInsert), "insert-ns/tuple")
	b.ReportMetric(st.PerTuple(paper.StepMerge), "merge-ns/tuple")
}

func BenchmarkFig09c_IMSerialMergeRatio(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
		WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
		Index: join.IndexIMTree, PIM: core.PIMTreeConfig{MergeRatio: 1.0 / 8},
	}))
}

func BenchmarkFig09d_PIMSerialMergeRatio(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
		WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
		Index: join.IndexPIMTree, PIM: core.PIMTreeConfig{MergeRatio: 1.0 / 8, InsertionDepth: 2},
	}))
}

// --- Figure 10: index comparison, match rate, task size ---

func BenchmarkFig10a_SerialIndexes(b *testing.B) {
	for _, kind := range []join.IndexKind{join.IndexBTree, join.IndexIMTree, join.IndexPIMTree} {
		b.Run(kind.String(), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
				WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
				Index: kind,
				PIM:   core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: 2},
			}))
		})
	}
}

func BenchmarkFig10b_MatchRate(b *testing.B) {
	for _, sigma := range []float64{0.25, 2, 16} {
		b.Run(sigmaName(sigma), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			bd := join.Band{Diff: stream.UniformDiff(benchWindow, sigma)}
			b.ResetTimer()
			report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
				WR: benchWindow, WS: benchWindow, Band: bd,
				Index: join.IndexPIMTree,
				PIM:   core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: 2},
			}))
		})
	}
}

func sigmaName(s float64) string {
	switch {
	case s < 1:
		return "sigma0.25"
	case s < 10:
		return "sigma2"
	default:
		return "sigma16"
	}
}

func BenchmarkFig10c_TaskSize(b *testing.B) {
	for _, task := range []int{1, 8} {
		b.Run(taskName(task), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
				Threads: 2, TaskSize: task, WR: benchWindow, WS: benchWindow,
				Band: band(benchWindow), Index: paper.PIMTree,
				PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
			}))
		})
	}
}

func taskName(t int) string {
	if t == 1 {
		return "task1"
	}
	return "task8"
}

func BenchmarkFig10d_Latency(b *testing.B) {
	arr := benchArrivals(tuples(b))
	rec := paper.NewLatencyRecorder(1<<15, 8)
	b.ResetTimer()
	st := paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2}, Latency: rec,
	})
	report(b, st)
	b.ReportMetric(st.Latency.MeanMicros, "mean-latency-µs")
}

// --- Figure 11: memory, asymmetry, bandwidth ---

func BenchmarkFig11a_MemoryFootprint(b *testing.B) {
	// Footprint is size-structural: benchmark the fill+merge cycle and
	// report the resulting component sizes.
	for i := 0; i < b.N; i++ {
		pt := core.NewPIMTree(benchWindow, core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2})
		gen := stream.NewUniform(1)
		for j := 0; j < benchWindow; j++ {
			pt.Insert(kvPair(gen.Next(), uint32(j)))
		}
		pt.MergeInPlace(func(core2 kvPairT) bool { return true })
		if i == 0 {
			m := pt.Memory()
			b.ReportMetric(float64(m.TSLeafBytes+m.TSInnerBytes+m.TIBytes)/1e6, "MB")
		}
	}
}

func BenchmarkFig11b_AsymmetricRates(b *testing.B) {
	arr := stream.NewInterleaver(1, stream.NewUniform(2), stream.NewUniform(3), 0.2).Take(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

func BenchmarkFig11c_AsymmetricWindows(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow / 4, WS: benchWindow * 2,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

func BenchmarkFig11d_MemoryBandwidth(b *testing.B) {
	arr := benchArrivals(tuples(b))
	metrics.Tracing = true
	metrics.ResetTraffic()
	b.ResetTimer()
	st := paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	})
	b.StopTimer()
	tr := metrics.SnapshotTraffic()
	metrics.Tracing = false
	b.ReportMetric(metrics.Bandwidth(tr.LoadBytes, st.Elapsed), "load-GB/s")
	b.ReportMetric(metrics.Bandwidth(tr.StoreBytes, st.Elapsed), "store-GB/s")
}

// --- Figure 12: scalability, skew, self-join ---

func BenchmarkFig12a_Scalability(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run(threadName(threads), func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: benchWindow, WS: benchWindow,
				Band: band(benchWindow), Index: paper.PIMTree,
				PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
			}))
		})
	}
}

func threadName(t int) string { return "threads" + string(rune('0'+t)) }

func BenchmarkFig12b_SkewedDistributions(b *testing.B) {
	mk := func(s int64) stream.KeyGen { return stream.NewGaussian(s, 0.5, 0.125) }
	diff := stream.CalibrateDiff(mk, benchWindow, 2)
	arr := stream.NewInterleaver(1, mk(2), mk(3), 0.5).Take(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: join.Band{Diff: diff}, Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

func BenchmarkFig12c_SelfJoin(b *testing.B) {
	arr := benchSelf(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, Self: true,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

// --- Figure 13: drift and merge modes ---

func BenchmarkFig13a_DriftInsertSkew(b *testing.B) {
	gen := stream.NewShiftingGaussian(1, 1.0, benchWindow, 3*benchWindow)
	pt := core.NewPIMTree(benchWindow, core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Insert(kvPair(gen.Next(), uint32(i)))
		if pt.NeedsMerge() {
			pt.MergeInPlace(func(kvPairT) bool { return true })
		}
	}
}

func BenchmarkFig13b_DriftThroughput(b *testing.B) {
	gen := stream.NewShiftingGaussian(1, 0.6, benchWindow, 3*benchWindow)
	arr := stream.NewSelfStream(gen).Take(tuples(b))
	diff := stream.CalibrateDiff(func(s int64) stream.KeyGen {
		return stream.NewGaussian(s, 0.5, 0.125)
	}, benchWindow, 2)
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, Self: true,
		Band: join.Band{Diff: diff}, Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

func BenchmarkFig13c_BlockingVsNonblockingMerge(b *testing.B) {
	for _, blocking := range []bool{false, true} {
		name := "nonblocking"
		if blocking {
			name = "blocking"
		}
		b.Run(name, func(b *testing.B) {
			arr := benchArrivals(tuples(b))
			b.ResetTimer()
			report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
				Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
				Band: band(benchWindow), Index: paper.PIMTree,
				PIM:           core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
				BlockingMerge: blocking,
			}))
		})
	}
}

// --- Figure 14: merge cost ---

func BenchmarkFig14_MergeCost(b *testing.B) {
	pt := core.NewPIMTree(benchWindow, core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2})
	gen := stream.NewUniform(1)
	ref := uint32(0)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			pt.Insert(kvPair(gen.Next(), ref))
			ref++
		}
	}
	fill(benchWindow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.MergeInPlace(func(kvPairT) bool { return true })
		b.StopTimer()
		fill(pt.MergeThreshold())
		b.StartTimer()
	}
}

// --- Serial hot path at a window past cache ---

// BenchmarkSerialPushW20 times join.Streaming.Push on the PIM-Tree at
// W = 2^20 per stream, where the window rings and TS leaves (8 MiB each) no
// longer fit in cache: keys uniform over the whole uint32 domain, band sized
// for about two matches per tuple, both windows full and the merge cycle in
// steady state before the timer starts.
func BenchmarkSerialPushW20(b *testing.B) {
	const w = 1 << 20
	eng := join.NewStreaming(join.SerialConfig{
		WR: w, WS: w, Index: join.IndexPIMTree,
		Band: join.Band{Diff: 1<<32/w - 1},
	})
	rng := rand.New(rand.NewPCG(1, 2))
	next := func() stream.Arrival {
		v := rng.Uint64()
		return stream.Arrival{Stream: uint8(v & 1), Key: uint32(v >> 32)}
	}
	for i := 0; i < 5*w/2; i++ {
		eng.Push(next())
	}
	matches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches += eng.Push(next())
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// BenchmarkShardedPushPerTuple times Engine.Push one tuple per call in
// ModeSharded with 2 shards at W = 2^16 per stream: the caller for whom a
// lane is most often empty when the call returns, so the one that pays most
// for shipping partial batches to idle workers. The windows are full before
// the timer starts, and a closing Drain keeps the queued work inside it.
func BenchmarkShardedPushPerTuple(b *testing.B) {
	const w = 1 << 16
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, Shards: 2, Backend: pimtree.PIMTree,
		WindowR: w, WindowS: w, Diff: pimtree.DiffForMatchRate(w, 2),
		DiscardMatches: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close(context.Background())
	rng := rand.New(rand.NewPCG(1, 2))
	push := func() {
		v := rng.Uint64()
		if err := e.Push(pimtree.StreamID(v&1), uint32(v>>32)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5*w/2; i++ {
		push()
	}
	if err := e.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
	}
	if err := e.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedPushDurable is the durability-off control for the WAL: the
// same ModeSharded run, 2 shards at W = 2^17 per stream fed 512-tuple
// PushBatch calls, without and with a WAL at the default fsync and snapshot
// cadence. One op is one tuple. The windows are full before the timer
// starts, and a closing Drain keeps the queued work, fsyncs included, inside
// it. The WAL goes to /dev/shm when that is writable, so that the pair prices
// the log's code rather than a storage device.
func BenchmarkShardedPushDurable(b *testing.B) {
	const w, batch = 1 << 17, 512
	for _, durable := range []bool{false, true} {
		name := "wal=off"
		if durable {
			name = "wal=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := pimtree.Config{
				Mode: pimtree.ModeSharded, Shards: 2, Backend: pimtree.PIMTree,
				WindowR: w, WindowS: w, Diff: pimtree.DiffForMatchRate(w, 2),
				DiscardMatches: true,
			}
			if durable {
				dir, err := os.MkdirTemp("/dev/shm", "pimtree-bench-wal-")
				if err != nil {
					dir = b.TempDir()
				} else {
					b.Cleanup(func() { os.RemoveAll(dir) })
				}
				cfg.Durability.Dir = dir
			}
			e, err := pimtree.Open(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close(context.Background())
			rng := rand.New(rand.NewPCG(1, 2))
			buf := make([]pimtree.Arrival, batch)
			push := func() {
				for i := range buf {
					v := rng.Uint64()
					buf[i] = pimtree.Arrival{Stream: pimtree.StreamID(v & 1), Key: uint32(v >> 32)}
				}
				if err := e.PushBatch(buf); err != nil {
					b.Fatal(err)
				}
			}
			for n := 0; n < 5*w/2; n += batch {
				push()
			}
			if err := e.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				push()
			}
			if err := e.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Ablations ---

func BenchmarkAblationCSSFanout(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.IBWJSerial(arr[:b.N], join.SerialConfig{
		WR: benchWindow, WS: benchWindow, Band: band(benchWindow),
		Index: join.IndexPIMTree,
		PIM:   core.PIMTreeConfig{MergeRatio: 1.0 / 16, InsertionDepth: 2},
	}))
}

func BenchmarkAblationSingleLock(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 8, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM:        core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
		SingleLock: true,
	}))
}

func BenchmarkAblationEdgeScan(b *testing.B) {
	arr := benchArrivals(tuples(b))
	b.ResetTimer()
	report(b, paper.RunShared(arr[:b.N], paper.SharedConfig{
		Threads: 2, TaskSize: 64, WR: benchWindow, WS: benchWindow,
		Band: band(benchWindow), Index: paper.PIMTree,
		PIM: core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2},
	}))
}

// --- harness sanity: the full quick-scale suite stays runnable ---

func BenchmarkHarnessQuickSuite(b *testing.B) {
	if b.N > 1 {
		b.Skip("one-shot harness benchmark")
	}
	cfg := bench.Config{Scale: bench.Quick, Threads: 2, Seed: 7}
	e, _ := bench.ByID("fig10a")
	e.Run(cfg, discard{})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

type kvPairT = kv.Pair

func kvPair(k, r uint32) kv.Pair { return kv.Pair{Key: k, Ref: r} }
