package bench

import (
	"io"

	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/shard"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "abl-sharded",
		Title: "ablation: key-range sharded runtime vs shared-index runtime (Mtps)",
		Run:   runAblSharded,
	})
	register(Experiment{
		ID:    "abl-shardbatch",
		Title: "ablation: sharded runtime batch-size sweep (Mtps)",
		Run:   runAblShardBatch,
	})
	register(Experiment{
		ID:    "abl-shardskew",
		Title: "ablation: equal-width vs striped vs quantile shard boundaries under skew (Mtps)",
		Run:   runAblShardSkew,
	})
}

// runAblSharded sweeps the worker count for both parallel runtimes on the
// same workload: K shards (one goroutine each, independent single-writer
// PIM-Trees) against K threads over the paper's shared PIM-Tree. The sharded
// runtime pays routing and fan-out but performs no index-level
// synchronization.
func runAblSharded(cfg Config, out io.Writer) {
	w := 1 << 15
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 19
	}
	header(out, "abl-sharded", "shards/threads sweep at w="+wLabel(w))
	row(out, "workers", "sharded", "shared")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for k := 1; k <= 2*cfg.threads(); k *= 2 {
		sharded := shard.Run(arr, shard.Config{
			Shards: k, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimSerial(),
		}).Mtps()
		shared := paper.RunShared(arr, paper.SharedConfig{
			Threads: k, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(),
		}).Mtps()
		row(out, k, sharded, shared)
	}
}

// runAblShardBatch sweeps the per-shard batch size at a fixed shard count:
// batches amortize queue handoff on a busy lane. shard.Run routes the whole
// input without calling FlushIdle, so the sweep measures the size bound alone.
func runAblShardBatch(cfg Config, out io.Writer) {
	w := 1 << 14
	if cfg.Scale == Quick {
		w = 1 << 11
	} else if cfg.Scale == Paper {
		w = 1 << 18
	}
	k := cfg.threads()
	header(out, "abl-shardbatch", "batch-size sweep at w="+wLabel(w))
	row(out, "batch", "Mtps")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for _, batch := range []int{1, 4, 16, 64, 256, 1024} {
		st := shard.Run(arr, shard.Config{
			Shards: k, BatchSize: batch, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimSerial(),
		})
		row(out, batch, st.Mtps())
	}
}

// runAblShardSkew compares equal-width shard ranges, the default stripes and
// quantile boundaries on the Gaussian skew workload of Figure 12b:
// equal-width sharding routes nearly every tuple to the two central shards,
// while stripes dealt round-robin and quantile boundaries restore balance.
func runAblShardSkew(cfg Config, out io.Writer) {
	w := 1 << 14
	if cfg.Scale == Quick {
		w = 1 << 11
	} else if cfg.Scale == Paper {
		w = 1 << 18
	}
	k := cfg.threads()
	header(out, "abl-shardskew", "gaussian skew, equal-width vs striped vs quantile shards at w="+wLabel(w))
	row(out, "partitioner", "Mtps")
	n := cfg.tuplesFor(w)
	seed := cfg.seed()
	gen := func(s int64) stream.KeyGen { return stream.NewGaussian(s, 0.5, 0.125) }
	band := join.Band{Diff: stream.CalibrateDiff(gen, w, 2)}
	arr := stream.NewInterleaver(seed, gen(seed+1), gen(seed+2), 0.5).Take(n)

	equal := shard.Run(arr, shard.Config{
		Part: shard.NewRangePartitioner(k), WR: w, WS: w, Band: band,
		Index: join.IndexPIMTree, PIM: pimSerial(),
	})
	row(out, "equal-width", equal.Mtps())

	striped := shard.Run(arr, shard.Config{
		Shards: k, WR: w, WS: w, Band: band,
		Index: join.IndexPIMTree, PIM: pimSerial(),
	})
	row(out, "striped (default)", striped.Mtps())

	sample := make([]uint32, 1<<13)
	sgen := gen(seed + 3)
	for i := range sample {
		sample[i] = sgen.Next()
	}
	quant := shard.Run(arr, shard.Config{
		Part: shard.NewQuantilePartitioner(sample, k), WR: w, WS: w, Band: band,
		Index: join.IndexPIMTree, PIM: pimSerial(),
	})
	row(out, "quantile", quant.Mtps())
}
