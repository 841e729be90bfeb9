package bench

import (
	"io"

	"pimtree/internal/join"
	"pimtree/internal/ooo"
	"pimtree/internal/shard"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "abl-ooo",
		Title: "ablation: out-of-order ingestion — reorder overhead and slack sweep (Mtps)",
		Run:   runAblOOO,
	})
}

// runAblOOO measures the out-of-order ingestion layer on the sharded
// time-window runtime. The router always admits through the reorder buffer,
// so its slack-0 run over sorted input is the strict baseline; the
// "ooo slack=0" row repeats that figure so the committed baseline's cells
// keep gating. The
// remaining rows shuffle the input with bounded disorder and sweep the
// slack, showing that tolerating realistic disorder costs little beyond the
// fixed reorder overhead.
func runAblOOO(cfg Config, out io.Writer) {
	// w is the target live population per window; the span is derived so a
	// symmetric two-stream arrival process keeps about w tuples live per
	// stream (mean inter-arrival gap of meanGap units, half per stream).
	w := 1 << 12
	if cfg.Scale == Quick {
		w = 1 << 10
	} else if cfg.Scale == Paper {
		w = 1 << 15
	}
	const meanGap = 4
	span := uint64(2 * meanGap * w)
	n := 32 * w
	seed := cfg.seed()
	band := join.Band{Diff: stream.UniformDiff(w, 2)}
	sorted := stream.Timestamp(seed+1, twoWay(n, seed), meanGap)

	header(out, "abl-ooo", "out-of-order ingestion at live population "+wLabel(w))
	row(out, "input", "sharded", "late", "max disorder")

	toJoin := func(arr []stream.TimedArrival) []join.TimedArrival {
		out := make([]join.TimedArrival, len(arr))
		for i, a := range arr {
			out[i] = join.TimedArrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
		}
		return out
	}
	shardCfg := func(slack uint64) shard.Config {
		return shard.Config{
			Shards: cfg.threads(), Span: span, MaxLive: 2 * w,
			Band: band, Index: join.IndexPIMTree, PIM: pimParallel(),
			Slack: slack, Late: ooo.Drop,
		}
	}

	base := shard.RunTimed(toJoin(sorted), shardCfg(0))
	for _, label := range []string{"sorted (strict)", "ooo slack=0"} {
		row(out, label, base.Mtps(), base.LateDropped, base.MaxDisorder)
	}

	// Bounded-disorder inputs at increasing slack.
	for i, slack := range []uint64{span / 64, span / 16, span / 4} {
		shuffled := toJoin(stream.ShuffleWithinSlack(seed+int64(10+i), sorted, slack))
		sh := shard.RunTimed(shuffled, shardCfg(slack))
		row(out, "shuffled slack="+wLabel(int(slack)), sh.Mtps(), sh.LateDropped, sh.MaxDisorder)
	}
}
