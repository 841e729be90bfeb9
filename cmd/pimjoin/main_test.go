package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"pimtree"
)

func TestBackendByName(t *testing.T) {
	cases := map[string]pimtree.Backend{
		"pim": pimtree.PIMTree, "pimtree": pimtree.PIMTree,
		"im": pimtree.IMTree, "imtree": pimtree.IMTree,
		"btree": pimtree.BPlusTree, "B+Tree": pimtree.BPlusTree, "bplustree": pimtree.BPlusTree,
	}
	for name, want := range cases {
		got, ok := backendByName(name)
		if !ok || got != want {
			t.Fatalf("backendByName(%q) = %v,%v, want %v", name, got, ok, want)
		}
	}
	if _, ok := backendByName("nope"); ok {
		t.Fatal("unknown backend accepted")
	}
	// The paper's Bw-Tree and chained indexes run only in pimbench.
	for _, name := range []string{"bwtree", "bchain"} {
		var out, errw bytes.Buffer
		if code := run([]string{"-stdin", "-backend", name}, strings.NewReader(""), &out, &errw); code != 2 || !strings.Contains(errw.String(), "unknown backend") {
			t.Fatalf("-backend %s: exit %d, stderr %q; want 2 and an unknown-backend message", name, code, errw.String())
		}
	}
}

func TestModeByName(t *testing.T) {
	cases := map[string]pimtree.Mode{
		"auto": pimtree.ModeAuto, "serial": pimtree.ModeSerial,
		"sharded":      pimtree.ModeSharded,
		"sharded-time": pimtree.ModeShardedTime, "time": pimtree.ModeShardedTime,
	}
	for name, want := range cases {
		got, ok := modeByName(name)
		if !ok || got != want {
			t.Fatalf("modeByName(%q) = %v,%v, want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{"nope", "shared"} {
		if _, ok := modeByName(name); ok {
			t.Fatalf("unknown mode %q accepted", name)
		}
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-stdin", "-mode", "shared"}, strings.NewReader(""), &out, &errw); code != 2 || !strings.Contains(errw.String(), "unknown mode") {
		t.Fatalf("-mode shared: exit %d, stderr %q; want 2 and an unknown-mode message", code, errw.String())
	}
}

// TestRunBatchParallel runs the batch path serially and with -parallel, which
// opens the sharded mode, and requires the same match count from both.
func TestRunBatchParallel(t *testing.T) {
	matchLine := func(args ...string) (mode, matches string) {
		t.Helper()
		var out, errw bytes.Buffer
		if code := run(append([]string{"-n", "4000", "-w", "256"}, args...), strings.NewReader(""), &out, &errw); code != 0 {
			t.Fatalf("run(%v) = %d (stderr %q)", args, code, errw.String())
		}
		for _, l := range strings.Split(out.String(), "\n") {
			if i := strings.Index(l, "mode="); i >= 0 {
				mode = l[i+len("mode="):]
			}
			if strings.Contains(l, "matches:") {
				matches = strings.Fields(l)[1]
			}
		}
		return mode, matches
	}
	serialMode, serial := matchLine()
	parallelMode, parallel := matchLine("-parallel", "-threads", "2")
	if serialMode != pimtree.ModeSerial.String() || parallelMode != pimtree.ModeSharded.String() {
		t.Fatalf("modes %q / %q, want %s / %s", serialMode, parallelMode, pimtree.ModeSerial, pimtree.ModeSharded)
	}
	if serial == "" || parallel != serial {
		t.Fatalf("-parallel found %q matches, serial %q", parallel, serial)
	}
	for _, gone := range []string{"-task", "-blocking-merge"} {
		var out, errw bytes.Buffer
		if code := run([]string{"-parallel", gone}, strings.NewReader(""), &out, &errw); code != 2 {
			t.Fatalf("%s: exit %d, want 2", gone, code)
		}
	}
}

func TestParseLine(t *testing.T) {
	s, key, ts, err := parseLine("S, 42, 99", true)
	if err != nil || s != pimtree.S || key != 42 || ts != 99 {
		t.Fatalf("parseLine = %v %d %d %v", s, key, ts, err)
	}
	if _, _, _, err := parseLine("R,7", true); err == nil {
		t.Fatal("timed mode accepted a line without ts")
	}
	for _, bad := range []string{"R", "X,5", "R,notakey", "R,5,notats"} {
		if _, _, _, err := parseLine(bad, false); err == nil && bad != "R,5,notats" {
			t.Fatalf("parseLine(%q) accepted", bad)
		}
	}
}

// TestRunStream drives the stdin streaming session end to end and checks the
// emitted match lines against the serial oracle.
func TestRunStream(t *testing.T) {
	const w = 64
	arrivals := pimtree.Interleave(3, pimtree.UniformSource(4), pimtree.UniformSource(5), 0.5, 4000)
	diff := pimtree.DiffForMatchRate(w, 2)

	oracle, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: w, WindowS: w, Diff: diff, DiscardMatches: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.PushBatch(arrivals); err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var in bytes.Buffer
	if err := pimtree.WriteArrivalsCSV(&in, arrivals); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	cfg := pimtree.Config{Mode: pimtree.ModeSharded, WindowR: w, WindowS: w, Diff: diff, Shards: 2}
	if err := runStream(cfg, &in, &out, &errw, true, 1000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if out.Len() == 0 {
		lines = nil
	}
	if uint64(len(lines)) != want.Matches {
		t.Fatalf("emitted %d match lines, oracle has %d", len(lines), want.Matches)
	}
	if !strings.Contains(errw.String(), "matches=") {
		t.Fatalf("missing final stats on stderr: %q", errw.String())
	}
	if !strings.Contains(errw.String(), "Mtps") {
		t.Fatalf("missing live stats lines: %q", errw.String())
	}
}

// TestRunStreamTimed covers the sharded-time stdin path with out-of-order
// input within the configured slack.
func TestRunStreamTimed(t *testing.T) {
	sorted := pimtree.TimestampArrivals(6,
		pimtree.Interleave(7, pimtree.UniformSource(8), pimtree.UniformSource(9), 0.5, 2000), 3)
	shuffled := pimtree.ShuffleWithinSlack(10, sorted, 64)
	var in bytes.Buffer
	for _, a := range shuffled {
		tag := "R"
		if a.Stream == pimtree.S {
			tag = "S"
		}
		fmt.Fprintf(&in, "%s,%d,%d\n", tag, a.Key, a.TS)
	}
	var out, errw bytes.Buffer
	cfg := pimtree.Config{
		Mode: pimtree.ModeShardedTime, Span: 1 << 10, MaxLive: 1 << 9,
		Diff: 1 << 8, Shards: 2, Slack: 64, LatePolicy: pimtree.LateDrop,
	}
	if err := runStream(cfg, &in, &out, &errw, false, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "mode=sharded-time") {
		t.Fatalf("missing final stats: %q", errw.String())
	}
}

func TestSourceFactory(t *testing.T) {
	for _, dist := range []string{"uniform", "gaussian", "gamma33", "gamma15", "UNIFORM"} {
		mk := sourceFactory(dist)
		if mk == nil {
			t.Fatalf("sourceFactory(%q) = nil", dist)
		}
		src := mk(1)
		// Deterministic for a fixed seed.
		if src.Next() != mk(1).Next() {
			t.Fatalf("%s source not deterministic", dist)
		}
	}
	if sourceFactory("nope") != nil {
		t.Fatal("unknown distribution accepted")
	}
}
