// Command pimjoin runs a sliding-window band join over synthetic streams or
// live stdin input and prints throughput and match counts — a command-line
// harness around the public pimtree API.
//
// Batch examples (synthetic workloads, whole-run statistics):
//
//	pimjoin -n 1000000 -w 65536 -sigma 2                       # serial PIM-Tree join
//	pimjoin -n 1000000 -w 65536 -backend btree                 # serial B+-Tree baseline
//	pimjoin -n 1000000 -w 65536 -parallel -threads 4           # key-range sharded parallel join
//	pimjoin -n 500000 -w 16384 -self -dist gaussian            # skewed self-join
//
// Streaming mode (-stdin) turns pimjoin into a long-lived engine session:
// arrivals are read incrementally from stdin (`stream,key` lines, or
// `stream,key,ts` with -mode sharded-time), joined as they arrive through
// pimtree.Open, and matches stream back out as `probeStream,probeSeq,matchSeq`
// lines (-emit). EOF drains the engine and prints final statistics:
//
//	pimtrace -n 100000 | pimjoin -stdin -w 4096 -emit
//	tail -f arrivals.csv | pimjoin -stdin -w 65536 -mode sharded -stats-every 100000
//
// The serve subcommand exposes the same long-lived engine over the network:
// a TCP listener speaking the length-prefixed binary ingest/egress protocol
// (wire spec in docs/OPERATIONS.md) and an optional HTTP admin endpoint
// with /stats, /metrics (Prometheus), and /healthz. SIGINT/SIGTERM drains
// the engine gracefully before exiting:
//
//	pimjoin serve -addr :9040 -admin :9041 -w 65536 -mode sharded
//	pimjoin serve -addr :9040 -mode sharded-time -span 2000000000 -maxlive 65536 -slack 50000000
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pimtree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "serve" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runServe(ctx, args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "route" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runRoute(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("pimjoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 1_000_000, "tuples to process (batch mode)")
		w        = fs.Int("w", 1<<16, "window length (both streams)")
		ws       = fs.Int("ws", 0, "stream-S window length (0 = same as -w)")
		sigma    = fs.Float64("sigma", 2, "target match rate (sets the band width)")
		diffFlag = fs.Uint("diff", 0, "explicit band half-width (overrides -sigma)")
		backend  = fs.String("backend", "pim", "index backend: pim | im | btree")
		self     = fs.Bool("self", false, "self-join instead of two-way")
		dist     = fs.String("dist", "uniform", "key distribution: uniform | gaussian | gamma33 | gamma15")
		parallel = fs.Bool("parallel", false, "use the multicore key-range sharded join (batch mode)")
		threads  = fs.Int("threads", 0, "shard count for -parallel and the -stdin sharded modes (0 = GOMAXPROCS)")
		seed     = fs.Int64("seed", 42, "workload seed")
		trace    = fs.String("trace", "", "replay a CSV trace (see pimtrace) instead of generating tuples")

		stdinMode  = fs.Bool("stdin", false, "streaming mode: read stream,key[,ts] lines from stdin through a long-lived engine")
		mode       = fs.String("mode", "auto", "engine mode for -stdin: auto | serial | sharded | sharded-time")
		emit       = fs.Bool("emit", false, "streaming mode: write matches to stdout as probeStream,probeSeq,matchSeq lines")
		statsEvery = fs.Int("stats-every", 0, "streaming mode: print a live Stats snapshot to stderr every N tuples")
		span       = fs.Uint64("span", 0, "time-window duration for -mode sharded-time")
		maxLive    = fs.Int("maxlive", 0, "live-tuple bound per window for -mode sharded-time")
		slack      = fs.Uint64("slack", 0, "tolerated event-time disorder for -mode sharded-time (enables LateDrop)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *ws == 0 {
		*ws = *w
	}
	be, ok := backendByName(*backend)
	if !ok {
		fmt.Fprintf(stderr, "pimjoin: unknown backend %q\n", *backend)
		return 2
	}
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	if !*stdinMode {
		// The mirror of the -stdin guard below: streaming-only flags on the
		// batch path would be silently ignored.
		for _, streamOnly := range []string{"mode", "emit", "stats-every", "span", "maxlive", "slack"} {
			if setFlags[streamOnly] {
				fmt.Fprintf(stderr, "pimjoin: -%s is a streaming-mode flag and has no effect without -stdin\n", streamOnly)
				return 2
			}
		}
	}

	if *stdinMode {
		m, ok := modeByName(*mode)
		if !ok {
			fmt.Fprintf(stderr, "pimjoin: unknown mode %q\n", *mode)
			return 2
		}
		if (*span > 0 || *maxLive > 0 || *slack > 0) &&
			m != pimtree.ModeShardedTime && !(m == pimtree.ModeAuto && *span > 0) {
			fmt.Fprintln(stderr, "pimjoin: -span/-maxlive/-slack require -mode sharded-time (or -mode auto with -span)")
			return 2
		}
		// Batch-only flags alongside -stdin would be silently ignored —
		// reject them so a user who thinks they replayed a trace (or chose
		// the batch parallel driver) finds out immediately.
		for _, batchOnly := range []string{"trace", "parallel", "n", "dist", "seed"} {
			if setFlags[batchOnly] {
				fmt.Fprintf(stderr, "pimjoin: -%s is a batch-mode flag and has no effect with -stdin\n", batchOnly)
				return 2
			}
		}
		cfg := pimtree.Config{
			Mode:    m,
			WindowR: *w, WindowS: *ws,
			Self:    *self,
			Diff:    uint32(*diffFlag),
			Backend: be,
			Shards:  *threads,
			Span:    *span,
			MaxLive: *maxLive,
			Slack:   *slack,
			// Without -emit nothing consumes individual matches; keep the
			// runtimes on their count-only fast path.
			DiscardMatches: !*emit,
		}
		if cfg.Diff == 0 {
			cfg.Diff = pimtree.DiffForMatchRate(*w, *sigma)
		}
		if cfg.Slack > 0 {
			cfg.LatePolicy = pimtree.LateDrop
		}
		if err := runStream(cfg, stdin, stdout, stderr, *emit, *statsEvery); err != nil {
			fmt.Fprintln(stderr, "pimjoin:", err)
			return 1
		}
		return 0
	}

	mkSource := sourceFactory(*dist)
	if mkSource == nil {
		fmt.Fprintf(stderr, "pimjoin: unknown distribution %q\n", *dist)
		return 2
	}

	diff := uint32(*diffFlag)
	if diff == 0 {
		if *dist == "uniform" {
			diff = pimtree.DiffForMatchRate(*w, *sigma)
		} else {
			diff = pimtree.CalibrateDiff(mkSource, *w, *sigma)
		}
	}

	var arrivals []pimtree.Arrival
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fmt.Fprintln(stderr, "pimjoin:", err)
			return 1
		}
		arrivals, err = pimtree.ReadArrivalsCSV(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "pimjoin:", err)
			return 1
		}
		*n = len(arrivals)
	} else if *self {
		arrivals = pimtree.SelfArrivals(mkSource(*seed+1), *n)
	} else {
		arrivals = pimtree.Interleave(*seed, mkSource(*seed+1), mkSource(*seed+2), 0.5, *n)
	}

	cfg := pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: *w, WindowS: *ws, Self: *self, Diff: diff,
		Backend:        be,
		DiscardMatches: true,
	}
	if *parallel {
		cfg.Mode = pimtree.ModeSharded
		cfg.Shards = *threads
	}
	fmt.Fprintf(stdout, "pimjoin: n=%d wR=%d wS=%d diff=%d backend=%s dist=%s self=%v mode=%s\n",
		*n, *w, *ws, diff, *backend, *dist, *self, cfg.Mode)
	e, err := pimtree.Open(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin:", err)
		return 1
	}
	if err := e.PushBatch(arrivals); err != nil {
		e.Close(context.Background())
		fmt.Fprintln(stderr, "pimjoin:", err)
		return 1
	}
	st, err := e.Close(context.Background())
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin:", err)
		return 1
	}
	fmt.Fprintf(stdout, "  throughput: %.3f Mtps  (%d tuples in %v)\n", st.Mtps, st.Tuples, st.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  matches:    %d (%.3f per tuple)\n", st.Matches, float64(st.Matches)/float64(st.Tuples))
	fmt.Fprintf(stdout, "  merges:     %d (%v total)\n", st.Merges, st.MergeTime.Round(time.Microsecond))
	return 0
}

// runStream is the streaming session: one long-lived engine fed line by line
// from in, matches streamed to out while the session is live, final
// statistics on EOF. This is the zero-batching ingestion path — each line is
// pushed as it is read.
func runStream(cfg pimtree.Config, in io.Reader, out, errw io.Writer, emit bool, statsEvery int) error {
	e, err := pimtree.Open(cfg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		// Error paths must still tear the session down: worker goroutines
		// and the emit consumer (unblocked by the pull queue closing)
		// would otherwise outlive the call.
		if !closed {
			e.Close(context.Background())
		}
	}()
	timed := e.Mode() == pimtree.ModeShardedTime

	// Pull side: consume the match iterator concurrently so engine
	// propagation never waits on stdout.
	done := make(chan error, 1)
	if emit {
		matches := e.Matches() // armed before the first push
		go func() {
			bw := bufio.NewWriter(out)
			for m := range matches {
				tag := "R"
				if m.ProbeStream == pimtree.S {
					tag = "S"
				}
				if _, err := fmt.Fprintf(bw, "%s,%d,%d\n", tag, m.ProbeSeq, m.MatchSeq); err != nil {
					done <- err
					return
				}
			}
			done <- bw.Flush()
		}()
	} else {
		close(done)
	}

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo, pushed := 0, 0
	for sc.Scan() {
		if emit {
			// A dead match writer (broken pipe downstream) must stop the
			// ingest loop: nothing consumes the pull queue anymore, so
			// joining an endless input would grow it without bound.
			select {
			case emitErr := <-done:
				if emitErr != nil {
					return fmt.Errorf("match output: %w", emitErr)
				}
			default:
			}
		}
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, key, ts, err := parseLine(line, timed)
		if err != nil {
			return fmt.Errorf("stdin line %d: %w", lineNo, err)
		}
		if timed {
			err = e.PushTimed(s, key, ts)
		} else {
			err = e.Push(s, key)
		}
		if err != nil {
			return fmt.Errorf("stdin line %d: %w", lineNo, err)
		}
		pushed++
		if statsEvery > 0 && pushed%statsEvery == 0 {
			fmt.Fprintln(errw, "pimjoin:", statsLine(e))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stdin read: %w", err)
	}
	closed = true
	st, err := e.Close(context.Background())
	if err != nil {
		return err
	}
	if emitErr := <-done; emitErr != nil {
		return emitErr
	}
	fmt.Fprintf(errw, "pimjoin: mode=%s tuples=%d matches=%d elapsed=%v (%.3f Mtps)\n",
		e.Mode(), st.Tuples, st.Matches, st.Elapsed.Round(time.Millisecond), st.Mtps)
	if st.LateDropped > 0 || st.MaxObservedDisorder > 0 {
		fmt.Fprintf(errw, "pimjoin: late=%d max-disorder=%d\n", st.LateDropped, st.MaxObservedDisorder)
	}
	return nil
}

// parseLine parses one stdin line via the shared trace grammar
// (pimtree.ParseArrival); timed mode additionally requires the ts field.
func parseLine(line string, timed bool) (pimtree.StreamID, uint32, uint64, error) {
	a, hasTS, err := pimtree.ParseArrival(line)
	if err != nil {
		return 0, 0, 0, err
	}
	if timed && !hasTS {
		return 0, 0, 0, fmt.Errorf("timed mode needs `stream,key,ts`, got %q", line)
	}
	return a.Stream, a.Key, a.TS, nil
}

func modeByName(name string) (pimtree.Mode, bool) {
	switch strings.ToLower(name) {
	case "auto", "":
		return pimtree.ModeAuto, true
	case "serial":
		return pimtree.ModeSerial, true
	case "sharded":
		return pimtree.ModeSharded, true
	case "sharded-time", "shardedtime", "time":
		return pimtree.ModeShardedTime, true
	default:
		return pimtree.ModeAuto, false
	}
}

func sourceFactory(dist string) func(int64) pimtree.KeySource {
	switch strings.ToLower(dist) {
	case "uniform":
		return func(s int64) pimtree.KeySource { return pimtree.UniformSource(s) }
	case "gaussian":
		return func(s int64) pimtree.KeySource { return pimtree.GaussianSource(s, 0.5, 0.125) }
	case "gamma33":
		return func(s int64) pimtree.KeySource { return pimtree.GammaSource(s, 3, 3) }
	case "gamma15":
		return func(s int64) pimtree.KeySource { return pimtree.GammaSource(s, 1, 5) }
	default:
		return nil
	}
}

func backendByName(name string) (pimtree.Backend, bool) {
	switch strings.ToLower(name) {
	case "pim", "pimtree":
		return pimtree.PIMTree, true
	case "im", "imtree":
		return pimtree.IMTree, true
	case "btree", "b+tree", "bplustree":
		return pimtree.BPlusTree, true
	default:
		return pimtree.PIMTree, false
	}
}
