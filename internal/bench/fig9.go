package bench

import (
	"io"

	"pimtree/internal/join"
	"pimtree/internal/paper"
)

func init() {
	register(Experiment{
		ID:    "fig9a",
		Title: "parallel IBWJ using PIM-Tree: throughput vs merge ratio (Mtps)",
		Run:   runFig9a,
	})
	register(Experiment{
		ID:    "fig9b",
		Title: "per-tuple step cost breakdown by index (ns/tuple)",
		Run:   runFig9b,
	})
	register(Experiment{
		ID:    "fig9c",
		Title: "single-threaded IBWJ using IM-Tree: throughput vs merge ratio (Mtps)",
		Run:   runFig9c,
	})
	register(Experiment{
		ID:    "fig9d",
		Title: "single-threaded IBWJ using PIM-Tree: throughput vs merge ratio (Mtps)",
		Run:   runFig9d,
	})
}

// mergeRatios is the paper's sweep 2^-6 .. 2^0.
func mergeRatios() []float64 {
	out := make([]float64, 0, 7)
	for e := 6; e >= 0; e-- {
		out = append(out, 1.0/float64(int(1)<<e))
	}
	return out
}

func ratioLabel(m float64) string {
	for e := 0; e <= 10; e++ {
		if m == 1.0/float64(int(1)<<e) {
			if e == 0 {
				return "1"
			}
			return "2^-" + string(rune('0'+e))
		}
	}
	return "m"
}

// mergeSweepWindows picks a few windows for the m sweeps.
func (c Config) mergeSweepWindows() []int {
	switch c.Scale {
	case Quick:
		return []int{1 << 10, 1 << 12}
	case Paper:
		return []int{1 << 14, 1 << 16, 1 << 18, 1 << 20}
	default:
		return []int{1 << 12, 1 << 14, 1 << 16}
	}
}

func runFig9a(cfg Config, out io.Writer) {
	header(out, "fig9a", "parallel merge-ratio sweep")
	windows := cfg.mergeSweepWindows()
	cells := []interface{}{"m"}
	for _, w := range windows {
		cells = append(cells, "w="+wLabel(w))
	}
	row(out, cells...)
	threads := cfg.threads()
	for _, m := range mergeRatios() {
		cells := []interface{}{ratioLabel(m)}
		for _, w := range windows {
			n := cfg.tuplesFor(w)
			band := bandFor(w, 2)
			arr := twoWay(n, cfg.seed())
			pc := pimParallel()
			pc.MergeRatio = m
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
				Index: paper.PIMTree, PIM: pc,
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig9b(cfg Config, out io.Writer) {
	header(out, "fig9b", "step cost breakdown (ns/tuple)")
	row(out, "index", "w", "search", "insert", "delete", "merge", "scan")
	var windows []int
	switch cfg.Scale {
	case Quick:
		windows = []int{1 << 11, 1 << 13}
	case Paper:
		windows = []int{1 << 17, 1 << 20}
	default:
		windows = []int{1 << 13, 1 << 16}
	}
	for _, w := range windows {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		for _, kind := range []join.IndexKind{join.IndexPIMTree, join.IndexIMTree, join.IndexBTree} {
			st := paper.StepCosts(arr, join.SerialConfig{
				WR: w, WS: w, Band: band, Index: kind, PIM: pimSerial(),
			})
			// The scan column is measured by subtracting the repeated
			// descent time; scheduler noise can push it below zero on
			// loaded machines, so clamp for presentation.
			scan := st.PerTuple(paper.StepScan)
			if scan < 0 {
				scan = 0
			}
			row(out, kind.String(), wLabel(w),
				st.PerTuple(paper.StepSearch),
				st.PerTuple(paper.StepInsert),
				st.PerTuple(paper.StepDelete),
				st.PerTuple(paper.StepMerge),
				scan)
		}
	}
}

func runFig9c(cfg Config, out io.Writer) {
	header(out, "fig9c", "IM-Tree merge-ratio sweep (single-threaded)")
	runSerialMergeSweep(cfg, out, join.IndexIMTree)
}

func runFig9d(cfg Config, out io.Writer) {
	header(out, "fig9d", "PIM-Tree merge-ratio sweep (single-threaded)")
	runSerialMergeSweep(cfg, out, join.IndexPIMTree)
}

func runSerialMergeSweep(cfg Config, out io.Writer, kind join.IndexKind) {
	windows := cfg.mergeSweepWindows()
	cells := []interface{}{"m"}
	for _, w := range windows {
		cells = append(cells, "w="+wLabel(w))
	}
	row(out, cells...)
	for _, m := range mergeRatios() {
		cells := []interface{}{ratioLabel(m)}
		for _, w := range windows {
			n := cfg.tuplesFor(w)
			band := bandFor(w, 2)
			arr := twoWay(n, cfg.seed())
			sc := join.SerialConfig{WR: w, WS: w, Band: band, Index: kind, PIM: pimSerial()}
			sc.PIM.MergeRatio = m
			cells = append(cells, paper.IBWJSerial(arr, sc).Mtps())
		}
		row(out, cells...)
	}
}
