package bench

import (
	"io"

	"pimtree/internal/chainindex"
	"pimtree/internal/join"
	"pimtree/internal/paper"
)

func init() {
	register(Experiment{
		ID:    "fig8a",
		Title: "window join under round-robin partitioning vs single-threaded vs shared Bw-Tree (Mtps)",
		Run:   runFig8a,
	})
	register(Experiment{
		ID:    "fig8b",
		Title: "IBWJ using chained index vs B+-Tree across chain lengths (Mtps)",
		Run:   runFig8b,
	})
	register(Experiment{
		ID:    "fig8c",
		Title: "single-threaded IBWJ using PIM-Tree: throughput vs insertion depth DI (Mtps)",
		Run:   runFig8c,
	})
	register(Experiment{
		ID:    "fig8d",
		Title: "parallel IBWJ using PIM-Tree: throughput vs insertion depth DI (Mtps)",
		Run:   runFig8d,
	})
}

func runFig8a(cfg Config, out io.Writer) {
	header(out, "fig8a", "round-robin partitioning study")
	row(out, "w", "NLWJ-1T", "NLWJ-RR", "IBWJ-1T(B+)", "IBWJ-RR", "IBWJ-Bw-MT")
	threads := cfg.threads()
	// NLWJ is O(w) per tuple; cap its sweep so the experiment terminates.
	nlwjCap := 1 << 13
	if cfg.Scale == Paper {
		nlwjCap = 1 << 15
	}
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		nlwjN := n / 8
		if nlwjN < 1<<12 {
			nlwjN = 1 << 12
		}

		nlwj1, nlwjRR := -1.0, -1.0
		if w <= nlwjCap {
			nlwj1 = paper.NLWJ(arr[:nlwjN], join.SerialConfig{WR: w, WS: w, Band: band}).Mtps()
			nlwjRR = paper.RunRR(arr[:nlwjN], paper.RRConfig{Cores: threads, WR: w, WS: w, Band: band}).Mtps()
		}
		ibwj1 := paper.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexBTree}).Mtps()
		ibwjRR := paper.RunRR(arr, paper.RRConfig{Cores: threads, WR: w, WS: w, Band: band, Indexed: true}).Mtps()
		bwMT := paper.RunShared(arr, paper.SharedConfig{
			Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band, Index: paper.BwTree,
		}).Mtps()
		row(out, wLabel(w), nlwj1, nlwjRR, ibwj1, ibwjRR, bwMT)
	}
}

func runFig8b(cfg Config, out io.Writer) {
	w := 1 << 16
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 18
	}
	header(out, "fig8b", "chained index study at w="+wLabel(w))
	row(out, "L", "B+-Tree", "B-chain", "IB-chain")
	n := cfg.tuplesFor(w)
	band := bandFor(w, 2)
	arr := twoWay(n, cfg.seed())
	base := paper.IBWJSerial(arr, join.SerialConfig{WR: w, WS: w, Band: band, Index: join.IndexBTree}).Mtps()
	for l := 1; l <= 16; l++ {
		sc := join.SerialConfig{WR: w, WS: w, Band: band}
		bc := paper.IBWJChain(arr, sc, chainindex.BChain, l).Mtps()
		ibc := paper.IBWJChain(arr, sc, chainindex.IBChain, l).Mtps()
		row(out, l, base, bc, ibc)
	}
}

func runFig8c(cfg Config, out io.Writer) {
	header(out, "fig8c", "single-threaded PIM-Tree: DI sweep")
	row(out, "w", "DI=1", "DI=2", "DI=3", "DI=4")
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		cells := []interface{}{wLabel(w)}
		for di := 1; di <= 4; di++ {
			pc := pimSerial()
			pc.InsertionDepth = di
			st := paper.IBWJSerial(arr, join.SerialConfig{
				WR: w, WS: w, Band: band, Index: join.IndexPIMTree, PIM: pc,
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}

func runFig8d(cfg Config, out io.Writer) {
	header(out, "fig8d", "parallel PIM-Tree: DI sweep")
	row(out, "w", "DI=1", "DI=2", "DI=3", "DI=4")
	threads := cfg.threads()
	for _, w := range cfg.windowRange() {
		n := cfg.tuplesFor(w)
		band := bandFor(w, 2)
		arr := twoWay(n, cfg.seed())
		cells := []interface{}{wLabel(w)}
		for di := 1; di <= 4; di++ {
			pc := pimParallel()
			pc.InsertionDepth = di
			st := paper.RunShared(arr, paper.SharedConfig{
				Threads: threads, TaskSize: 8, WR: w, WS: w, Band: band,
				Index: paper.PIMTree, PIM: pc,
			})
			cells = append(cells, st.Mtps())
		}
		row(out, cells...)
	}
}
