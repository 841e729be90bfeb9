package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"pimtree"
	"pimtree/internal/server"
)

// serveReady, when set (tests), observes the started server before the
// command blocks on the shutdown signal.
var serveReady func(s *server.Server)

// runServe is the `pimjoin serve` subcommand: a long-lived engine session
// behind the binary wire protocol (docs/OPERATIONS.md), with an optional
// HTTP admin endpoint and graceful drain on SIGINT/SIGTERM (the ctx). The
// engine-shaping flags are the same names the -stdin streaming mode uses.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimjoin serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "127.0.0.1:9040", "TCP listen address of the binary ingest/egress protocol")
		admin  = fs.String("admin", "", "HTTP admin listen address serving /stats, /metrics, /healthz, /tuning, /debug/pprof/ (empty disables)")
		nodeID = fs.String("node-id", "", "node identity in /stats, /healthz, and cluster sessions (default: the listen address)")

		w        = fs.Int("w", 1<<16, "window length (both streams)")
		ws       = fs.Int("ws", 0, "stream-S window length (0 = same as -w)")
		sigma    = fs.Float64("sigma", 2, "target match rate (sets the band width)")
		diffFlag = fs.Uint("diff", 0, "explicit band half-width (overrides -sigma)")
		backend  = fs.String("backend", "pim", "index backend: pim | im | btree")
		self     = fs.Bool("self", false, "self-join instead of two-way")
		mode     = fs.String("mode", "auto", "engine mode: auto | serial | sharded | sharded-time")
		shards   = fs.Int("shards", 0, "shard count for the sharded modes (0 = GOMAXPROCS)")
		span     = fs.Uint64("span", 0, "time-window duration for -mode sharded-time")
		maxLive  = fs.Int("maxlive", 0, "live-tuple bound per window for -mode sharded-time")
		slack    = fs.Uint64("slack", 0, "tolerated event-time disorder for -mode sharded-time (enables LateDrop)")

		walDir      = fs.String("wal-dir", "", "durability directory: per-shard WAL + snapshots, recovered at startup (sharded modes; empty disables)")
		walFsync    = fs.Int("wal-fsync-every", 0, "fsync each shard lane after this many records (0 = default 64; 1 = every record)")
		walSnapshot = fs.Int("wal-snapshot-every", 0, "compacting-snapshot cadence in routed tuples (0 = default: the live-window capacity, at least 65536; negative disables)")

		queue        = fs.Int("queue", 0, "engine in-flight bound (QueueCapacity; 0 = mode default)")
		subQueue     = fs.Int("sub-queue", 0, "per-subscriber match queue capacity (0 = default 1024)")
		subPolicy    = fs.String("sub-policy", "drop", "slow-subscriber policy: drop | block")
		statsEvery   = fs.Duration("stats-every", 0, "print a live stats line to stderr at this interval (e.g. 5s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound after SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pimjoin serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *ws == 0 {
		*ws = *w
	}
	be, ok := backendByName(*backend)
	if !ok {
		fmt.Fprintf(stderr, "pimjoin serve: unknown backend %q\n", *backend)
		return 2
	}
	m, ok := modeByName(*mode)
	if !ok {
		fmt.Fprintf(stderr, "pimjoin serve: unknown mode %q\n", *mode)
		return 2
	}
	var slow server.SlowPolicy
	switch *subPolicy {
	case "drop":
		slow = server.DropNewest
	case "block":
		slow = server.Block
	default:
		fmt.Fprintf(stderr, "pimjoin serve: unknown -sub-policy %q (drop|block)\n", *subPolicy)
		return 2
	}

	cfg := pimtree.Config{
		Mode:    m,
		WindowR: *w, WindowS: *ws,
		Self:          *self,
		Diff:          uint32(*diffFlag),
		Backend:       be,
		Shards:        *shards,
		Span:          *span,
		MaxLive:       *maxLive,
		Slack:         *slack,
		QueueCapacity: *queue,
	}
	if *walDir != "" {
		cfg.Durability = pimtree.Durability{
			Dir:           *walDir,
			FsyncEvery:    *walFsync,
			SnapshotEvery: *walSnapshot,
		}
	}
	if cfg.Diff == 0 {
		cfg.Diff = pimtree.DiffForMatchRate(*w, *sigma)
	}
	if cfg.Slack > 0 {
		cfg.LatePolicy = pimtree.LateDrop
	}

	eng, err := pimtree.Open(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin serve:", err)
		return 1
	}
	srv, err := server.New(eng, server.Options{
		Addr:            *addr,
		AdminAddr:       *admin,
		SubscriberQueue: *subQueue,
		Slow:            slow,
		NodeID:          *nodeID,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "pimjoin "+format+"\n", a...)
		},
	})
	if err != nil {
		eng.Close(context.Background())
		fmt.Fprintln(stderr, "pimjoin serve:", err)
		return 1
	}
	adminStr := ""
	if srv.AdminAddr() != nil {
		adminStr = " admin=http://" + srv.AdminAddr().String()
	}
	fmt.Fprintf(stdout, "pimjoin serve: mode=%s addr=%s%s\n", eng.Mode(), srv.Addr(), adminStr)
	if serveReady != nil {
		serveReady(srv)
	}

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Fprintln(stderr, "pimjoin:", statsLine(eng))
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "pimjoin serve: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	st, err := srv.Shutdown(sctx)
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin serve: shutdown:", err)
		return 1
	}
	fmt.Fprintf(stderr, "pimjoin serve: mode=%s tuples=%d matches=%d elapsed=%v (%.3f Mtps)\n",
		eng.Mode(), st.Tuples, st.Matches, st.Elapsed.Round(time.Millisecond), st.Mtps)
	if st.LateDropped > 0 || st.MaxObservedDisorder > 0 {
		fmt.Fprintf(stderr, "pimjoin serve: late=%d max-disorder=%d\n", st.LateDropped, st.MaxObservedDisorder)
	}
	return 0
}

// statsLine renders one live engine snapshot, plus the shard imbalance,
// reshape migrations and live shard count in the sharded modes — the same
// line the -stdin -stats-every path prints.
func statsLine(e *pimtree.Engine) string {
	st := e.Stats()
	line := fmt.Sprintf("%d tuples, %d matches, %.3f Mtps", st.Tuples, st.Matches, st.Mtps)
	if e.ShardLoads() != nil {
		line += fmt.Sprintf(", imbalance %.2f, migrated %d, shards %d", st.Imbalance, st.MigratedTuples, e.Tuning().Shards)
	}
	return line
}
