// Clickstream: click-fraud detection via a sliding-window self-join
// (the paper cites pay-per-click fraud detection as a motivating stream
// application). Every click carries a feature key (here: a hash-like value
// whose proximity encodes similar client fingerprints); clicks whose keys
// fall within a tight band inside the same window are flagged as suspected
// duplicates:
//
//	SELECT * FROM clicks a, clicks b
//	WHERE ABS(a.fp - b.fp) <= eps          [window: last 64K clicks]
//
// A small fraction of the stream is generated by a "fraud bot" that reuses
// nearly identical fingerprints, so flagged pairs cluster on it. The example
// runs on the key-range sharded multicore join and reports flagged pairs and
// the hit rate on the injected bot traffic.
//
// Run with:
//
//	go run ./examples/clickstream
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"pimtree"
)

const (
	windowLen = 1 << 16
	clicks    = 500_000
	botEvery  = 40 // one bot click per 40 organic ones
	eps       = 1 << 8
)

// botSource mixes organic uniform fingerprints with a bot that emits tightly
// clustered ones.
type botSource struct {
	rng *rand.Rand
	i   int
}

func (b *botSource) Next() uint32 {
	b.i++
	if b.i%botEvery == 0 {
		// Bot fingerprints live in a narrow band.
		return 3_000_000_000 + uint32(b.rng.Intn(int(eps)))
	}
	return uint32(b.rng.Int63n(int64(pimtree.KeySpace)))
}

func main() {
	src := &botSource{rng: rand.New(rand.NewSource(99))}
	arrivals := pimtree.SelfArrivals(src, clicks)

	var flagged, botPairs uint64
	isBot := func(seq uint64) bool { return (seq+1)%botEvery == 0 }

	e, err := pimtree.Open(pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: windowLen,
		Self:    true,
		Diff:    eps,
		OnMatch: func(m pimtree.Match) {
			flagged++
			if isBot(m.ProbeSeq) && isBot(m.MatchSeq) {
				botPairs++
			}
		},
	})
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

	fmt.Printf("clicks analysed:   %d (window %d, eps %d)\n", st.Tuples, windowLen, eps)
	fmt.Printf("throughput:        %.2f Mtps across workers\n", st.Mtps)
	fmt.Printf("flagged pairs:     %d\n", flagged)
	if flagged > 0 {
		fmt.Printf("bot-to-bot pairs:  %d (%.1f%% precision on injected fraud)\n",
			botPairs, float64(botPairs)/float64(flagged)*100)
	}
	if botPairs == 0 {
		log.Fatal("expected the self-join to catch the injected bot traffic")
	}
}
