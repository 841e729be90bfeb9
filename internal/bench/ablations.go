package bench

import (
	"io"

	"pimtree/internal/cstree"
	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/paper"
)

func init() {
	register(Experiment{
		ID:    "abl-cssfanout",
		Title: "ablation: immutable B+-Tree fan-out vs single-threaded PIM-Tree IBWJ (Mtps)",
		Run:   runAblCSSFanout,
	})
	register(Experiment{
		ID:    "abl-singlelock",
		Title: "ablation: per-subindex locks vs one global TI lock in parallel IBWJ (Mtps)",
		Run:   runAblSingleLock,
	})
	register(Experiment{
		ID:    "abl-edgescan",
		Title: "ablation: task size/backlog vs edge linear-scan cost (Mtps, µs)",
		Run:   runAblEdgeScan,
	})
}

// runAblCSSFanout quantifies how much of the two-stage design's advantage
// comes from the high-fanout immutable layout (ablation 1).
func runAblCSSFanout(cfg Config, out io.Writer) {
	w := 1 << 15
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 19
	}
	header(out, "abl-cssfanout", "TS fan-out sweep at w="+wLabel(w))
	row(out, "fib", "Mtps")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for _, fib := range []int{4, 8, 16, 32, 64, 128} {
		pc := pimSerial()
		pc.CSTree = cstree.Config{Fanout: fib, LeafSize: 32}
		st := join.IBWJSerial(arr, join.SerialConfig{
			WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: pc,
		})
		row(out, fib, st.Mtps())
	}
}

// runAblSingleLock quantifies the value of per-subindex locking under
// parallel load (ablation 2).
func runAblSingleLock(cfg Config, out io.Writer) {
	w := 1 << 15
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 19
	}
	header(out, "abl-singlelock", "lock granularity at w="+wLabel(w))
	row(out, "threads", "per-subindex", "single-lock")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for threads := 1; threads <= 2*cfg.threads(); threads++ {
		fine := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(),
		}).Mtps()
		single := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(), SingleLock: true,
		}).Mtps()
		row(out, threads, fine, single)
	}
}

// runAblEdgeScan shows the cost of the unindexed-region linear scan as the
// task backlog grows with task size (ablation 3: large tasks delay
// edge advancement, lengthening every lookup's linear component).
func runAblEdgeScan(cfg Config, out io.Writer) {
	w := 1 << 14
	if cfg.Scale == Quick {
		w = 1 << 11
	} else if cfg.Scale == Paper {
		w = 1 << 18
	}
	header(out, "abl-edgescan", "task size vs throughput and latency at w="+wLabel(w))
	row(out, "task", "Mtps", "mean µs", "p99 µs")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for _, task := range []int{1, 2, 4, 8, 16, 32, 64} {
		rec := metrics.NewLatencyRecorder(1<<16, 4)
		st := paper.RunShared(arr, paper.SharedConfig{
			Threads: cfg.threads(), TaskSize: task, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(), Latency: rec,
		})
		row(out, task, st.Mtps(), st.Latency.MeanMicros, st.Latency.P99Micros)
	}
}
