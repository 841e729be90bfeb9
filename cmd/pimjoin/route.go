package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"pimtree"
	"pimtree/internal/cluster"
	"pimtree/internal/server"
)

// routeReady, when set (tests), observes the started router before the
// command blocks on the shutdown signal.
var routeReady func(s *server.Server, fe *cluster.Frontend)

// runRoute is the `pimjoin route` subcommand: the cluster tier's router. It
// speaks the same client protocol as `pimjoin serve` on -addr, but instead
// of a local engine it key-range-partitions ingest across the serve nodes
// in -nodes (each hosting a member session), merges their match streams
// into one ordered feed, and tracks the global watermark frontier. The
// admin endpoint adds /cluster (membership map), /cluster/join, and
// /cluster/leave on top of the usual /stats, /metrics, /healthz, /tuning.
func runRoute(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimjoin route", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr   = fs.String("addr", "127.0.0.1:9050", "TCP listen address of the binary ingest/egress protocol")
		admin  = fs.String("admin", "", "HTTP admin listen address serving /stats, /metrics, /cluster, /debug/pprof/ (empty disables)")
		nodes  = fs.String("nodes", "", "comma-separated serve-node addresses (required)")
		nodeID = fs.String("node-id", "", "router identity in /stats and /healthz (default: the listen address)")

		w        = fs.Int("w", 1<<16, "window length (both streams)")
		ws       = fs.Int("ws", 0, "stream-S window length (0 = same as -w)")
		sigma    = fs.Float64("sigma", 2, "target match rate (sets the band width)")
		diffFlag = fs.Uint("diff", 0, "explicit band half-width (overrides -sigma)")
		backend  = fs.String("backend", "pim", "index backend on the nodes: pim | im | btree")
		self     = fs.Bool("self", false, "self-join instead of two-way")
		span     = fs.Uint64("span", 0, "time-window duration (> 0 selects timed mode)")
		maxLive  = fs.Int("maxlive", 0, "live-tuple bound per window (timed mode)")
		slack    = fs.Uint64("slack", 0, "tolerated event-time disorder in timed mode (enables LateDrop)")

		nodeShards = fs.Int("node-shards", 0, "sub-shards per node (0 = node GOMAXPROCS)")
		batch      = fs.Int("batch", 0, "ops per node before an eager flush (0 = default 64)")
		queue      = fs.Int("queue", 0, "router in-flight bound (0 = default 16384)")
		nodeQueue  = fs.Int("node-queue", 0, "per-node member in-flight bound (0 = node default)")

		dialTimeout = fs.Duration("dial-timeout", 15*time.Second, "per-node dial budget including retries")
		pingEvery   = fs.Duration("ping-every", time.Second, "health-probe cadence")
		failAfter   = fs.Int("fail-after", 5, "consecutive failed probes before a node is declared down")
		degrade     = fs.String("degrade", "fail", "routing policy once a node is down: fail | shed")

		subQueue     = fs.Int("sub-queue", 0, "per-subscriber match queue capacity (0 = default 1024)")
		subPolicy    = fs.String("sub-policy", "drop", "slow-subscriber policy: drop | block")
		statsEvery   = fs.Duration("stats-every", 0, "print a live stats line to stderr at this interval (e.g. 5s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound after SIGINT/SIGTERM")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pimjoin route: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	addrs := strings.Split(*nodes, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	addrs = nonEmpty(addrs)
	if len(addrs) == 0 {
		fmt.Fprintln(stderr, "pimjoin route: -nodes requires at least one serve-node address")
		return 2
	}
	if *ws == 0 {
		*ws = *w
	}
	be, ok := backendByName(*backend)
	if !ok {
		fmt.Fprintf(stderr, "pimjoin route: unknown backend %q\n", *backend)
		return 2
	}
	var slow server.SlowPolicy
	switch *subPolicy {
	case "drop":
		slow = server.DropNewest
	case "block":
		slow = server.Block
	default:
		fmt.Fprintf(stderr, "pimjoin route: unknown -sub-policy %q (drop|block)\n", *subPolicy)
		return 2
	}
	var policy cluster.DegradePolicy
	switch *degrade {
	case "fail":
		policy = cluster.Fail
	case "shed":
		policy = cluster.Shed
	default:
		fmt.Fprintf(stderr, "pimjoin route: unknown -degrade %q (fail|shed)\n", *degrade)
		return 2
	}

	cfg := cluster.Config{
		Nodes: addrs,
		Timed: *span > 0, Self: *self,
		WR: *w, WS: *ws,
		Span: *span, MaxLive: *maxLive,
		Diff:    uint32(*diffFlag),
		Backend: be,
		Slack:   *slack,

		LocalShards: *nodeShards,
		BatchSize:   *batch,
		Capacity:    *queue,
		NodeRing:    *nodeQueue,

		DialTimeout:  *dialTimeout,
		PingInterval: *pingEvery,
		FailAfter:    *failAfter,
		Degrade:      policy,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "pimjoin "+format+"\n", a...)
		},
	}
	if cfg.Diff == 0 {
		cfg.Diff = pimtree.DiffForMatchRate(*w, *sigma)
	}
	if cfg.Slack > 0 {
		cfg.LatePolicy = pimtree.LateDrop
	}

	fe, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin route:", err)
		return 1
	}
	srv, err := server.New(fe, server.Options{
		Addr:            *addr,
		AdminAddr:       *admin,
		SubscriberQueue: *subQueue,
		Slow:            slow,
		NodeID:          *nodeID,
		Role:            "route",
		AdminMux:        fe.AdminMux,
		ExtraProm:       fe.PromFamilies,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, "pimjoin "+format+"\n", a...)
		},
	})
	if err != nil {
		fe.Close(context.Background())
		fmt.Fprintln(stderr, "pimjoin route:", err)
		return 1
	}
	adminStr := ""
	if srv.AdminAddr() != nil {
		adminStr = " admin=http://" + srv.AdminAddr().String()
	}
	fmt.Fprintf(stdout, "pimjoin route: mode=%s addr=%s nodes=%d%s\n", fe.Mode(), srv.Addr(), len(addrs), adminStr)
	if routeReady != nil {
		routeReady(srv, fe)
	}

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		go func() {
			for {
				select {
				case <-ticker.C:
					st := fe.Stats()
					frontier, known := fe.GlobalFrontier()
					line := fmt.Sprintf("%d tuples, %d matches, %.3f Mtps, nodes %d, imbalance %.2f",
						st.Tuples, st.Matches, st.Mtps, fe.Tuning().Shards, st.Imbalance)
					if known {
						line += fmt.Sprintf(", frontier %d", frontier)
					}
					fmt.Fprintln(stderr, "pimjoin:", line)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "pimjoin route: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	st, err := srv.Shutdown(sctx)
	if err != nil {
		fmt.Fprintln(stderr, "pimjoin route: shutdown:", err)
		return 1
	}
	fmt.Fprintf(stderr, "pimjoin route: mode=%s tuples=%d matches=%d elapsed=%v (%.3f Mtps)\n",
		fe.Mode(), st.Tuples, st.Matches, st.Elapsed.Round(time.Millisecond), st.Mtps)
	if st.LateDropped > 0 || st.MaxObservedDisorder > 0 {
		fmt.Fprintf(stderr, "pimjoin route: late=%d max-disorder=%d\n", st.LateDropped, st.MaxObservedDisorder)
	}
	return 0
}

// nonEmpty filters out empty strings in place.
func nonEmpty(ss []string) []string {
	out := ss[:0]
	for _, s := range ss {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}
