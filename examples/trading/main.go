// Trading: an algorithmic-trading style band join (one of the paper's
// motivating applications). Stream R carries executed trades, stream S
// carries quotes; the query pairs every trade with quotes whose price lies
// within a tick band, over asymmetric windows (quotes arrive ~4x as often
// as trades and keep a larger history):
//
//	SELECT * FROM trades t, quotes q
//	WHERE ABS(t.price - q.price) <= band    [windows: 16K trades, 64K quotes]
//
// The example runs the same workload twice — on the single-threaded engine
// and on the key-range sharded multicore join — and compares results and
// throughput, demonstrating that the parallel operator preserves the result
// set and its arrival order.
//
// Run with:
//
//	go run ./examples/trading
package main

import (
	"context"
	"fmt"
	"log"

	"pimtree"
)

func main() {
	const (
		tradeWindow = 1 << 14
		quoteWindow = 1 << 16
		tuples      = 400_000
		quoteShare  = 0.8 // quotes are 80% of arrivals
	)

	// Prices cluster around the midpoint of the domain: a Gaussian source
	// mimics a instrument trading in a band.
	mkPrices := func(seed int64) pimtree.KeySource {
		return pimtree.GaussianSource(seed, 0.5, 0.05)
	}
	band := pimtree.CalibrateDiff(mkPrices, quoteWindow, 4) // ~4 quotes per trade

	arrivals := pimtree.Interleave(7, mkPrices(8), mkPrices(9), quoteShare, tuples)

	cfg := pimtree.Config{
		WindowR: tradeWindow,
		WindowS: quoteWindow,
		Diff:    band,
		Backend: pimtree.PIMTree,
	}

	// Single-threaded reference run.
	serialCfg := cfg
	serialCfg.Mode = pimtree.ModeSerial
	serialCfg.DiscardMatches = true
	serial := run(serialCfg, arrivals)

	// Multicore run over the identical workload.
	var firstMatches int
	parallelCfg := cfg
	parallelCfg.Mode = pimtree.ModeSharded
	parallelCfg.OnMatch = func(m pimtree.Match) {
		if firstMatches < 3 {
			firstMatches++
			fmt.Printf("  sample match: stream=%d probe#%d ↔ opposite#%d\n",
				m.ProbeStream, m.ProbeSeq, m.MatchSeq)
		}
	}
	st := run(parallelCfg, arrivals)

	fmt.Printf("trade/quote band join: %d arrivals, windows %d/%d, band=%d\n",
		tuples, tradeWindow, quoteWindow, band)
	fmt.Printf("serial:   %.2f Mtps, %d matched pairs\n", serial.Mtps, serial.Matches)
	fmt.Printf("parallel: %.2f Mtps, %d matched pairs\n", st.Mtps, st.Matches)
	if st.Matches != serial.Matches {
		log.Fatalf("result mismatch: serial %d vs parallel %d", serial.Matches, st.Matches)
	}
	fmt.Println("parallel result set identical to the serial reference ✓")
}

// run joins the whole workload in one engine session and returns its final
// statistics.
func run(cfg pimtree.Config, arrivals []pimtree.Arrival) pimtree.RunStats {
	e, err := pimtree.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.PushBatch(arrivals); err != nil {
		log.Fatal(err)
	}
	st, err := e.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return st
}
