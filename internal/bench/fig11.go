package bench

import (
	"io"

	"pimtree/internal/btree"
	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/metrics"
	"pimtree/internal/paper"
	"pimtree/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig11a",
		Title: "memory footprint of PIM-Tree components vs B+-Tree (MB)",
		Run:   runFig11a,
	})
	register(Experiment{
		ID:    "fig11b",
		Title: "parallel IBWJ using PIM-Tree under asymmetric input rates (Mtps)",
		Run:   runFig11b,
	})
	register(Experiment{
		ID:    "fig11c",
		Title: "parallel IBWJ using PIM-Tree under asymmetric window sizes (Mtps)",
		Run:   runFig11c,
	})
	register(Experiment{
		ID:    "fig11d",
		Title: "effective memory bandwidth of parallel IBWJ (GB/s, software-traced)",
		Run:   runFig11d,
	})
}

func runFig11a(cfg Config, out io.Writer) {
	header(out, "fig11a", "memory footprint (MB); merge ratio 1 so TI is at its largest")
	row(out, "w", "PIM.TS", "PIM.TI", "PIM.buffer", "PIM.total", "B+.leaf", "B+.inner", "B+.total")
	var windows []int
	switch cfg.Scale {
	case Quick:
		windows = pows(12, 15)
	case Paper:
		windows = pows(18, 22)
	default:
		windows = pows(14, 18)
	}
	mb := func(b int) float64 { return float64(b) / (1 << 20) }
	for _, w := range windows {
		// Fill a PIM-Tree through one full cycle: w merged elements in TS
		// plus m*w = w unmerged in TI, matching the figure's setup.
		pc := core.PIMTreeConfig{MergeRatio: 1, InsertionDepth: 2}
		pt := core.NewPIMTree(w, pc)
		gen := stream.NewUniform(cfg.seed())
		for i := 0; i < w; i++ {
			pt.Insert(kv.Pair{Key: gen.Next(), Ref: uint32(i)})
		}
		pt.MergeInPlace(func(kv.Pair) bool { return true })
		for i := 0; i < w; i++ {
			pt.Insert(kv.Pair{Key: gen.Next(), Ref: uint32(i)})
		}
		pm := pt.Memory()
		pimTotal := pm.TSLeafBytes + pm.TSInnerBytes + pm.TIBytes + pm.BufferBytes

		bt := btree.New()
		gen2 := stream.NewUniform(cfg.seed() + 9)
		for i := 0; i < w; i++ {
			bt.Insert(kv.Pair{Key: gen2.Next(), Ref: uint32(i)})
		}
		bm := bt.Memory()
		row(out, wLabel(w),
			mb(pm.TSLeafBytes+pm.TSInnerBytes), mb(pm.TIBytes), mb(pm.BufferBytes), mb(pimTotal),
			mb(bm.LeafBytes), mb(bm.InnerBytes), mb(bm.LeafBytes+bm.InnerBytes))
	}
}

func runFig11b(cfg Config, out io.Writer) {
	header(out, "fig11b", "asymmetric input rates (x = share of stream S)")
	windows := cfg.taskSizeWindows()
	cells := []interface{}{"pS%"}
	for _, w := range windows {
		cells = append(cells, "w="+wLabel(w))
	}
	row(out, cells...)
	threads := cfg.threads()
	for pct := 0; pct <= 50; pct += 10 {
		cells := []interface{}{pct}
		for _, w := range windows {
			n := cfg.tuplesFor(w)
			band := bandFor(w, 2)
			arr := interleaveSeeded(cfg.seed(), func(s int64) stream.KeyGen { return stream.NewUniform(s) },
				float64(pct)/100, n)
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
				Index: join.IndexPIMTree, PIM: pimParallel(),
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig11c(cfg Config, out io.Writer) {
	header(out, "fig11c", "asymmetric window sizes (rows: wr, cols: ws)")
	var sizes []int
	switch cfg.Scale {
	case Quick:
		sizes = pows(10, 13)
	case Paper:
		sizes = pows(14, 20)
	default:
		sizes = pows(12, 16)
	}
	cells := []interface{}{"wr\\ws"}
	for _, ws := range sizes {
		cells = append(cells, wLabel(ws))
	}
	row(out, cells...)
	threads := cfg.threads()
	for _, wr := range sizes {
		cells := []interface{}{wLabel(wr)}
		for _, ws := range sizes {
			wmax := wr
			if ws > wmax {
				wmax = ws
			}
			n := cfg.tuplesFor(wmax)
			band := bandFor(wmax, 2)
			arr := twoWay(n, cfg.seed())
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: wr, WS: ws, Band: band,
				Index: join.IndexPIMTree, PIM: pimParallel(),
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig11d(cfg Config, out io.Writer) {
	w := 1 << 16
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 20
	}
	header(out, "fig11d", "software-traced memory traffic at w="+wLabel(w))
	row(out, "threads", "load GB/s", "store GB/s", "store share %")
	maxThreads := 2 * cfg.threads()
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	for threads := 1; threads <= maxThreads; threads++ {
		metrics.Tracing = true
		metrics.ResetTraffic()
		st := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
			Index: join.IndexPIMTree, PIM: pimParallel(),
		})
		tr := metrics.SnapshotTraffic()
		metrics.Tracing = false
		load := metrics.Bandwidth(tr.LoadBytes, st.Elapsed)
		store := metrics.Bandwidth(tr.StoreBytes, st.Elapsed)
		share := 0.0
		if load+store > 0 {
			share = store / (load + store) * 100
		}
		row(out, threads, load, store, share)
	}
}
