package bench

import (
	"fmt"
	"io"

	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig13a",
		Title: "insert distribution across PIM-Tree subindexes under a drifting Gaussian",
		Run:   runFig13a,
	})
	register(Experiment{
		ID:    "fig13b",
		Title: "parallel self-join throughput over time under a drifting Gaussian (Mtps)",
		Run:   runFig13b,
	})
	register(Experiment{
		ID:    "fig13c",
		Title: "two-way join: single vs multithreaded implementations (Mtps)",
		Run:   runFig13c,
	})
}

// driftRates is the paper's r sweep.
func driftRates() []float64 { return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0} }

func runFig13a(cfg Config, out io.Writer) {
	w := 1 << 16
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 20
	}
	header(out, "fig13a", "normalized insert rate per subindex decile during the drift phase, w="+wLabel(w))
	row(out, "r", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9", "d10", "max/mean", "zero%")
	// Drive the PIM-Tree directly with the three-phase drifting workload and
	// accumulate per-subindex insert counters between merges, exactly the
	// measurement behind Figure 13a.
	p1, p2 := w, 3*w
	for _, r := range driftRates() {
		pc := core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 4}
		pt := core.NewSharedPIMTree(w, pc, false)
		gen := stream.NewShiftingGaussian(cfg.seed(), r, p1, p2)
		win := newRefWindow(w)

		// Phase 1: reach steady state (at least one merge).
		for i := 0; i < p1; i++ {
			pt.Insert(kv.Pair{Key: gen.Next(), Ref: win.push()})
			maintain(pt, win)
		}
		// Phase 2 (drift): accumulate normalized per-subindex insert rates.
		deciles := make([]float64, 10)
		var maxOverMean, zeroShare float64
		epochs := 0
		pt.ResetInsertCounts()
		flush := func() {
			counts := pt.InsertCounts()
			n := len(counts)
			if n == 0 {
				return
			}
			total := int64(0)
			zero := 0
			maxC := int64(0)
			for _, c := range counts {
				total += c
				if c == 0 {
					zero++
				}
				if c > maxC {
					maxC = c
				}
			}
			if total == 0 {
				return
			}
			mean := float64(total) / float64(n)
			for i, c := range counts {
				d := i * 10 / n
				deciles[d] += float64(c)
			}
			maxOverMean += float64(maxC) / mean
			zeroShare += float64(zero) / float64(n) * 100
			epochs++
		}
		for i := 0; i < p2; i++ {
			pt.Insert(kv.Pair{Key: gen.Next(), Ref: win.push()})
			if pt.NeedsMerge() {
				flush()
				maintain(pt, win)
				pt.ResetInsertCounts()
			}
		}
		flush()
		if epochs == 0 {
			epochs = 1
		}
		total := 0.0
		for _, d := range deciles {
			total += d
		}
		cells := []interface{}{fmt.Sprintf("%.1f", r)}
		for _, d := range deciles {
			pct := 0.0
			if total > 0 {
				pct = d / total * 100
			}
			cells = append(cells, pct)
		}
		cells = append(cells, maxOverMean/float64(epochs), zeroShare/float64(epochs))
		row(out, cells...)
	}
}

// refWindow is a minimal count-window for direct index driving: it tracks
// which refs are live so merges can filter expired entries.
type refWindow struct {
	w    int
	seq  uint64
	mask uint64
	seqs []uint64
}

func newRefWindow(w int) *refWindow {
	capacity := uint64(1)
	for capacity < uint64(4*w) {
		capacity <<= 1
	}
	return &refWindow{w: w, mask: capacity - 1, seqs: make([]uint64, capacity)}
}

func (r *refWindow) push() uint32 {
	ref := uint32(r.seq & r.mask)
	r.seqs[ref] = r.seq
	r.seq++
	return ref
}

func (r *refWindow) live(p kv.Pair) bool {
	s := r.seqs[p.Ref]
	return s < r.seq && r.seq-s <= uint64(r.w)
}

func maintain(pt *core.SharedPIMTree, win *refWindow) {
	if pt.NeedsMerge() {
		pt.MergeInPlace(win.live)
	}
}

func runFig13b(cfg Config, out io.Writer) {
	w := 1 << 14
	if cfg.Scale == Quick {
		w = 1 << 11
	} else if cfg.Scale == Paper {
		w = 1 << 18
	}
	header(out, "fig13b", "throughput over time, drifting self-join at w="+wLabel(w))
	threads := cfg.threads()
	p1, p2, p3 := 2*w, 6*w, 2*w
	chunk := (p1 + p2 + p3) / 16
	labels := []interface{}{"r"}
	for i := 1; i <= 16; i++ {
		labels = append(labels, fmt.Sprintf("c%d", i))
	}
	row(out, labels...)
	for _, r := range driftRates() {
		gen := stream.NewShiftingGaussian(cfg.seed(), r, p1, p2)
		arr := stream.NewSelfStream(gen).Take(p1 + p2 + p3)
		diff := stream.CalibrateDiff(func(s int64) stream.KeyGen {
			return stream.NewGaussian(s, 0.5, 0.125)
		}, w, 2)
		st := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, Self: true,
			Band: join.Band{Diff: diff}, Index: paper.PIMTree,
			PIM: pimParallelWithDI(3), ChunkTuples: chunk,
		})
		cells := []interface{}{fmt.Sprintf("%.1f", r)}
		for _, c := range st.Chunks {
			cells = append(cells, c.Mtps)
		}
		row(out, cells...)
	}
}

func runFig13c(cfg Config, out io.Writer) {
	header(out, "fig13c", "two-way join comparison incl. blocking merge")
	row(out, "w", "1T-B+Tree", "1T-PIM", "MT-BwTree", "MT-PIM", "MT-PIM-blocking")
	threads := cfg.threads()
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		bt := paper.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexBTree}).Mtps()
		pim1 := paper.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: pimSerial()}).Mtps()
		bwMT := -1.0
		if _, ok := paper.BwWindowsFit(threads, 8, w, w); ok {
			bwMT = paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band, Index: paper.BwTree,
			}).Mtps()
		}
		pimMT := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: paper.PIMTree, PIM: pimParallel(),
		}).Mtps()
		pimBlk := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: paper.PIMTree, PIM: pimParallel(), BlockingMerge: true,
		}).Mtps()
		row(out, wLabel(w), bt, pim1, bwMT, pimMT, pimBlk)
	}
}
