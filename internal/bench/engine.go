package bench

import (
	"context"
	"io"
	"log"

	"pimtree"
)

func init() {
	register(Experiment{
		ID:    "abl-engine",
		Title: "ablation: streaming Engine incremental-push overhead vs one-shot batch runs (Mtps)",
		Run:   runAblEngine,
	})
}

// runAblEngine quantifies what the long-lived Engine sessions cost relative
// to one-shot batch runs on the same workload: the batch shape (one
// PushBatch over a ring sized to the input, so nothing blocks), per-tuple
// Push (the live-ingest shape, one queue handoff per arrival), and mid-size
// PushBatch chunks (the amortized middle ground).
// Run for the sharded mode; the serial engine has no queue, so its push path
// is the baseline itself.
func runAblEngine(cfg Config, out io.Writer) {
	w := 1 << 14
	if cfg.Scale == Quick {
		w = 1 << 12
	} else if cfg.Scale == Paper {
		w = 1 << 17
	}
	header(out, "abl-engine", "incremental-push overhead at w="+wLabel(w))
	row(out, "mode", "batch", "push1", "batch256")
	n := cfg.tuplesFor(w)
	diff := pimtree.DiffForMatchRate(w, 2)
	arr := make([]pimtree.Arrival, n)
	for i, a := range twoWay(n, cfg.seed()) {
		arr[i] = pimtree.Arrival{Stream: pimtree.StreamID(a.Stream), Key: a.Key}
	}

	base := pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: w, WindowS: w, Diff: diff,
		Shards:         cfg.threads(),
		DiscardMatches: true,
	}
	batch := base
	batch.QueueCapacity = len(arr)
	row(out, base.Mode.String(), driveEngine(batch, arr, len(arr)), driveEngine(base, arr, 1), driveEngine(base, arr, 256))
}

// driveEngine runs one engine session over the arrivals in chunks of the
// given size (1 = per-tuple Push) and returns the session's throughput.
func driveEngine(cfg pimtree.Config, arr []pimtree.Arrival, chunk int) float64 {
	e, err := pimtree.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if chunk <= 1 {
		for _, a := range arr {
			if err := e.Push(a.Stream, a.Key); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		for lo := 0; lo < len(arr); lo += chunk {
			hi := lo + chunk
			if hi > len(arr) {
				hi = len(arr)
			}
			if err := e.PushBatch(arr[lo:hi]); err != nil {
				log.Fatal(err)
			}
		}
	}
	st, err := e.Close(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return st.Mtps
}
