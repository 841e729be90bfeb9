package main

import (
	"pimtree"
)

// Pinned for every workload and echoed in the output: the runner has two
// cores, and a setting that follows the host would make runs on different
// hosts incomparable.
const (
	pinnedProcs  = 2
	pinnedShards = 2
)

const (
	poolSize  = 1 << 22 // arrivals generated per run (64 MiB), replayed cyclically
	segments  = 12      // equal saturation segments; throughput is their median
	pushBatch = 512     // arrivals per push while filling and saturating
	setups    = 3       // set-ups per run; setup_s is their median

	// Event time of the timed workload, in arbitrary ticks: consecutive
	// arrivals are eventGap apart on average, shuffled within eventSlack.
	eventGap   = 1000
	eventSlack = 64 * eventGap
	// timedLive is the live population per stream the Span aims at.
	timedLive = 1 << 16
)

// workload is one input and engine configuration of the benchmark.
type workload struct {
	name string
	why  string

	mode    pimtree.Mode
	window  int  // count window per stream; 0 for the timed workload
	durable bool // WAL on; set-up includes Close and recovery
	served  bool // driven through a loopback internal/server
	hotBand bool // skewed, timed, out-of-order input (else uniform count input)

	rate int // paced phase: tuples per second
	warm int // set-up: tuples pushed before any timer of a phase starts
	// segPerSecond sizes the saturation phase: one segment is this many
	// tuples per second of -seconds, so that the twelve segments take about
	// two thirds of -seconds on the 2-core runner. Work is fixed in tuples:
	// for a given -seconds every commit pushes exactly the same input.
	segPerSecond int
}

var workloads = []workload{
	{
		name: "serial_uniform",
		why:  "single-threaded baseline at W=2^20, past cache: core+window+join do all the work, shard/wal/server/ooo none",
		mode: pimtree.ModeSerial, window: 1 << 20,
		rate: 200_000, warm: 1 << 21, segPerSecond: 40_000,
	},
	{
		name: "sharded_uniform",
		why:  "same arrivals as serial_uniform through 2 shards: isolates what admit, route, queues and ordered merge add",
		mode: pimtree.ModeSharded, window: 1 << 20,
		rate: 200_000, warm: 1 << 21, segPerSecond: 40_000,
	},
	{
		name: "durable_uniform",
		why:  "writes beside reads: W=2^17 sharded with WAL (fsync every 64) so append, sync and snapshot dominate, not the index",
		mode: pimtree.ModeSharded, window: 1 << 17, durable: true,
		rate: 150_000, warm: 1 << 20, segPerSecond: 42_000,
	},
	{
		name: "served_ooo",
		why:  "loopback server over time windows, shuffled timestamps, sweeping hot key band: wire, fan-out, ooo and skewed ranges on the blocking path",
		mode: pimtree.ModeShardedTime, served: true, hotBand: true,
		rate: 150_000, warm: 1 << 20, segPerSecond: 38_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pool generates the workload's input from the seed.
func (w workload) pool(seed uint64, n int) *pool {
	if w.hotBand {
		return hotBandPool(seed, n, eventGap, eventSlack)
	}
	return uniformPool(seed, n)
}

// diff is the band half-width giving about two matches per tuple, in closed
// form: a probe sees `live` opposite keys spread over `domain` values and
// matches those within diff on either side.
func (w workload) diff() uint32 {
	if w.hotBand {
		return uint32((1 << 29) / timedLive) // live keys lie in one eighth of the domain
	}
	return uint32((1<<32)/w.window) - 1
}

// config is the engine configuration; walDir is used by the durable workload
// only.
func (w workload) config(walDir string) pimtree.Config {
	cfg := pimtree.Config{Mode: w.mode, Diff: w.diff(), Backend: pimtree.PIMTree}
	if w.mode != pimtree.ModeSerial {
		cfg.Shards = pinnedShards
	}
	if w.hotBand {
		cfg.Span = 2 * timedLive * eventGap
		cfg.MaxLive = 2 * timedLive
		cfg.Slack = eventSlack
		cfg.LatePolicy = pimtree.LateDrop
	} else {
		cfg.WindowR, cfg.WindowS = w.window, w.window
	}
	if w.durable {
		cfg.Durability = pimtree.Durability{Dir: walDir, FsyncEvery: 64}
	}
	return cfg
}

// sizes are the tuple counts of one run, fixed by -seconds alone.
type sizes struct {
	warm   int
	seg    int // tuples per saturation segment
	paced  pacedPlan
	prefix int // verification prefix: warm-up plus the first segment
}

// size scales the run to -seconds; quarter selects the traced run's length.
func (w workload) size(seconds int, quarter bool) sizes {
	seg := w.segPerSecond * seconds
	pacedSecs := 0.3 * float64(seconds)
	if quarter {
		seg /= 4
		pacedSecs /= 4
	}
	seg = max(seg/shuffleBlock, 1) * shuffleBlock
	return sizes{warm: w.warm, seg: seg, paced: planPaced(w.rate, pacedSecs), prefix: w.warm + seg}
}
