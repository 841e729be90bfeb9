package bench

import (
	"fmt"
	"io"

	"pimtree/internal/join"
	"pimtree/internal/metrics"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig10a",
		Title: "single-threaded IBWJ: B+-Tree vs IM-Tree vs PIM-Tree across window sizes (Mtps)",
		Run:   runFig10a,
	})
	register(Experiment{
		ID:    "fig10b",
		Title: "throughput vs match rate (Mtps)",
		Run:   runFig10b,
	})
	register(Experiment{
		ID:    "fig10c",
		Title: "parallel IBWJ using PIM-Tree: throughput vs task size (Mtps)",
		Run:   runFig10c,
	})
	register(Experiment{
		ID:    "fig10d",
		Title: "parallel IBWJ using PIM-Tree: latency vs task size (µs)",
		Run:   runFig10d,
	})
}

func runFig10a(cfg Config, out io.Writer) {
	header(out, "fig10a", "single-threaded index comparison")
	row(out, "w", "B+-Tree", "IM-Tree", "PIM-Tree")
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		bt := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexBTree}).Mtps()
		im := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexIMTree, PIM: pimSerial()}).Mtps()
		pim := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: pimSerial()}).Mtps()
		row(out, wLabel(w), bt, im, pim)
	}
}

func runFig10b(cfg Config, out io.Writer) {
	w := 1 << 16
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 20
	}
	header(out, "fig10b", fmt.Sprintf("match-rate sweep at w=%s", wLabel(w)))
	row(out, "sigma_s", "B+-Tree", "IM-Tree", "PIM-Tree", "PIM-Tree-MT")
	threads := cfg.threads()
	// The paper sweeps 2^-4 .. 2^10; very high match rates are expensive,
	// so cap by scale.
	maxExp := 6
	if cfg.Scale == Paper {
		maxExp = 10
	} else if cfg.Scale == Quick {
		maxExp = 4
	}
	for e := -4; e <= maxExp; e += 2 {
		sigma := 1.0
		if e >= 0 {
			sigma = float64(int(1) << e)
		} else {
			sigma = 1.0 / float64(int(1)<<(-e))
		}
		band := bandFor(w, sigma)
		n := cfg.tuplesFor(w)
		if e >= 6 {
			n /= 4 // high match rates emit huge result sets
			if n < 1<<14 {
				n = 1 << 14
			}
		}
		arr := twoWay(n, cfg.seed())
		bt := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexBTree}).Mtps()
		im := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexIMTree, PIM: pimSerial()}).Mtps()
		pim := join.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: pimSerial()}).Mtps()
		pimMT := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(),
		}).Mtps()
		row(out, fmt.Sprintf("2^%d", e), bt, im, pim, pimMT)
	}
}

// taskSizeWindows picks the window set for the task-size sweeps.
func (c Config) taskSizeWindows() []int {
	switch c.Scale {
	case Quick:
		return []int{1 << 10, 1 << 12}
	case Paper:
		return []int{1 << 16, 1 << 18, 1 << 20, 1 << 22}
	default:
		return []int{1 << 12, 1 << 14, 1 << 16}
	}
}

func runFig10c(cfg Config, out io.Writer) {
	header(out, "fig10c", "task-size throughput sweep")
	windows := cfg.taskSizeWindows()
	cells := []interface{}{"task"}
	for _, w := range windows {
		cells = append(cells, "w="+wLabel(w))
	}
	row(out, cells...)
	threads := cfg.threads()
	for task := 1; task <= 10; task++ {
		cells := []interface{}{task}
		for _, w := range windows {
			n := cfg.tuplesFor(w)
			band := bandFor(w, 2)
			arr := twoWay(n, cfg.seed())
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: task, WR: w, WS: w, Band: band,
				Index: join.IndexPIMTree, PIM: pimParallel(),
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig10d(cfg Config, out io.Writer) {
	header(out, "fig10d", "task-size latency sweep (mean µs)")
	windows := cfg.taskSizeWindows()
	cells := []interface{}{"task"}
	for _, w := range windows {
		cells = append(cells, "w="+wLabel(w))
	}
	row(out, cells...)
	threads := cfg.threads()
	for task := 1; task <= 10; task++ {
		cells := []interface{}{task}
		for _, w := range windows {
			n := cfg.tuplesFor(w)
			band := bandFor(w, 2)
			arr := twoWay(n, cfg.seed())
			rec := metrics.NewLatencyRecorder(1<<16, 4)
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: task, WR: w, WS: w, Band: band,
				Index: join.IndexPIMTree, PIM: pimParallel(), Latency: rec,
			})
			cells = append(cells, st.Latency.MeanMicros)
		}
		row(out, cells...)
	}
}

// interleaveSeeded is a helper for experiments needing custom distributions.
func interleaveSeeded(seed int64, mk func(int64) stream.KeyGen, pS float64, n int) []stream.Arrival {
	return stream.NewInterleaver(seed, mk(seed+1), mk(seed+2), pS).Take(n)
}
