package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pimtree"
	"pimtree/internal/server"
)

func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-backend", "nope"},
		{"-mode", "nope"},
		{"-mode", "shared"},
		{"-threads", "2"},
		{"-task", "8"},
		{"-blocking-merge"},
		{"-sub-policy", "nope"},
		{"extra-arg"},
		{"-not-a-flag"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		if code := runServe(context.Background(), args, &out, &errw); code != 2 {
			t.Errorf("runServe(%v) = %d, want 2 (stderr %q)", args, code, errw.String())
		}
	}
	// A config the engine rejects (not the flag parser) exits 1.
	var out, errw bytes.Buffer
	if code := runServe(context.Background(), []string{"-w", "-5"}, &out, &errw); code != 1 {
		t.Errorf("invalid window: exit %d, want 1 (stderr %q)", code, errw.String())
	}
}

// TestServeEndToEnd drives the subcommand exactly as the CI smoke job does:
// start, connect a loopback client, push, drain, scrape the admin endpoint,
// deliver the shutdown signal (the ctx), and require a graceful exit 0.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan *server.Server, 1)
	serveReady = func(s *server.Server) { ready <- s }
	defer func() { serveReady = nil }()

	var out, errw syncBuffer
	code := make(chan int, 1)
	go func() {
		code <- runServe(ctx, []string{
			"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
			"-w", "256", "-mode", "sharded", "-shards", "2",
			"-stats-every", "10ms",
		}, &out, &errw)
	}()
	var srv *server.Server
	select {
	case srv = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	c, err := server.Dial(srv.Addr().String(), server.DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	arr := pimtree.Interleave(1, pimtree.UniformSource(2), pimtree.UniformSource(3), 0.5, 3000)
	if err := c.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	ms, err := c.DrainWait()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches over the wire")
	}

	resp, err := http.Get("http://" + srv.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "pimtree_engine_tuples_total 3000") {
		t.Fatalf("/metrics missing ingest count:\n%s", body)
	}

	cancel() // the SIGTERM path
	select {
	case got := <-code:
		if got != 0 {
			t.Fatalf("exit code %d, want 0 (stderr %q)", got, errw.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit after the shutdown signal")
	}
	if s := errw.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "tuples=3000") {
		t.Fatalf("missing drain/final lines on stderr: %q", s)
	}
	if !strings.Contains(out.String(), "mode=sharded addr=") {
		t.Fatalf("missing serving line on stdout: %q", out.String())
	}
}

// TestStatsLineShardObservability pins the satellite requirement: the
// periodic stats line surfaces per-shard imbalance and migration counters.
func TestStatsLineShardObservability(t *testing.T) {
	e, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSharded, WindowR: 128, WindowS: 128,
		Diff: pimtree.DiffForMatchRate(128, 2), Shards: 2,
		DiscardMatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := pimtree.Interleave(4, pimtree.UniformSource(5), pimtree.UniformSource(6), 0.5, 2000)
	if err := e.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	line := statsLine(e)
	for _, want := range []string{"tuples", "imbalance", "migrated", "shards 2"} {
		if !strings.Contains(line, want) {
			t.Errorf("stats line %q missing %q", line, want)
		}
	}
	// A live reshape shows up on the next line.
	if err := e.Reconfigure(pimtree.Delta{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if l := statsLine(e); !strings.Contains(l, "shards 3") {
		t.Errorf("stats line %q missing post-reshape shard count", l)
	}
	if _, err := e.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Serial engines keep the plain line.
	se, err := pimtree.Open(pimtree.Config{
		Mode: pimtree.ModeSerial, WindowR: 64, WindowS: 64, Diff: 1, DiscardMatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close(context.Background())
	if l := statsLine(se); strings.Contains(l, "imbalance") {
		t.Errorf("serial stats line must not report shard imbalance: %q", l)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer (runServe writes from its
// stats ticker goroutine while the test reads).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
