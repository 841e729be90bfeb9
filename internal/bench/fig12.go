package bench

import (
	"io"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig12a",
		Title: "scalability and concurrency-control overhead: threads sweep (Mtps)",
		Run:   runFig12a,
	})
	register(Experiment{
		ID:    "fig12b",
		Title: "parallel IBWJ using PIM-Tree under skewed value distributions (Mtps)",
		Run:   runFig12b,
	})
	register(Experiment{
		ID:    "fig12c",
		Title: "index-based self-join: single-threaded vs multithreaded (Mtps)",
		Run:   runFig12c,
	})
}

func runFig12a(cfg Config, out io.Writer) {
	w := 1 << 16
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 20
	}
	header(out, "fig12a", "thread sweep at w="+wLabel(w)+" (noCC rows are thread-independent baselines)")
	row(out, "threads", "two-way-CC", "self-CC", "two-way-noCC", "self-noCC")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arrTwo := twoWay(n, cfg.seed())
	arrSelf := selfStream(n, cfg.seed())

	// The no-CC baseline: the single-threaded serial driver, whose PIM-Tree
	// takes no locks (Figure 12a's reference lines).
	noCC := pimParallel()
	twoNoCC := paper.IBWJSerial(arrTwo, join.SerialConfig{
		WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: noCC,
	}).Mtps()
	selfNoCC := paper.IBWJSerial(arrSelf, join.SerialConfig{
		WR: w, Self: true, Band: band, Index: join.IndexPIMTree, PIM: noCC,
	}).Mtps()

	maxThreads := 2 * cfg.threads()
	for threads := 1; threads <= maxThreads; threads++ {
		two := paper.RunShared(arrTwo, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: paper.PIMTree, PIM: pimParallel(),
		}).Mtps()
		self := paper.RunShared(arrSelf, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, Self: true, Band: band,
			Index: paper.PIMTree, PIM: pimParallel(),
		}).Mtps()
		row(out, threads, two, self, twoNoCC, selfNoCC)
	}
}

func runFig12b(cfg Config, out io.Writer) {
	header(out, "fig12b", "value-distribution sweep (diff calibrated per distribution for sigma_s=2)")
	row(out, "w", "uniform", "gaussian", "gamma(3,3)", "gamma(1,5)")
	threads := cfg.threads()
	dists := []struct {
		name string
		mk   func(int64) stream.KeyGen
	}{
		{"uniform", func(s int64) stream.KeyGen { return stream.NewUniform(s) }},
		{"gaussian", func(s int64) stream.KeyGen { return stream.NewGaussian(s, 0.5, 0.125) }},
		{"gamma33", func(s int64) stream.KeyGen { return stream.NewGamma(s, 3, 3) }},
		{"gamma15", func(s int64) stream.KeyGen { return stream.NewGamma(s, 1, 5) }},
	}
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		cells := []interface{}{wLabel(w)}
		for _, d := range dists {
			diff := stream.CalibrateDiff(d.mk, w, 2)
			arr := interleaveSeeded(cfg.seed(), d.mk, 0.5, n)
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, WS: w, Band: join.Band{Diff: diff},
				Index: paper.PIMTree, PIM: pimParallel(),
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig12c(cfg Config, out io.Writer) {
	header(out, "fig12c", "self-join comparison")
	row(out, "w", "1T-B+Tree", "1T-PIM", "MT-BwTree", "MT-PIM")
	threads := cfg.threads()
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := selfStream(n, cfg.seed())
		bt := paper.IBWJSerial(arr, join.SerialConfig{
			WR: w, Self: true, Band: band, Index: join.IndexBTree,
		}).Mtps()
		pim1 := paper.IBWJSerial(arr, join.SerialConfig{
			WR: w, Self: true, Band: band, Index: join.IndexPIMTree, PIM: pimSerial(),
		}).Mtps()
		bwMT := -1.0
		if _, ok := paper.BwWindowsFit(threads, 8, w, w); ok {
			bwMT = paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, Self: true, Band: band,
				Index: paper.BwTree,
			}).Mtps()
		}
		pimMT := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, Self: true, Band: band,
			Index: paper.PIMTree, PIM: pimParallel(),
		}).Mtps()
		row(out, wLabel(w), bt, pim1, bwMT, pimMT)
	}
}

// pimParallelConfig re-export for experiments needing tweaks.
func pimParallelWithDI(di int) core.PIMTreeConfig {
	c := pimParallel()
	c.InsertionDepth = di
	return c
}
