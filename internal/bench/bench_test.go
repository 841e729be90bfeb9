package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig8a", "fig8b", "fig8c", "fig8d",
		"fig9a", "fig9b", "fig9c", "fig9d",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b", "fig11c", "fig11d",
		"fig12a", "fig12b", "fig12c",
		"fig13a", "fig13b", "fig13c",
		"fig14",
		"abl-cssfanout", "abl-singlelock", "abl-edgescan",
		"abl-sharded", "abl-shardbatch", "abl-shardskew",
		"abl-ooo",
		"abl-engine",
		"abl-serve",
		"abl-alloc",
		"abl-wal",
		"model",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID should miss unknown ids")
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"quick": Quick, "default": Default, "": Default, "paper": Paper} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.threads() < 1 {
		t.Fatal("default threads must be positive")
	}
	if c.seed() == 0 {
		t.Fatal("default seed must be nonzero")
	}
	if len(c.windowRange()) == 0 {
		t.Fatal("window range empty")
	}
	if c.tuplesFor(1<<10) < 1<<10 {
		t.Fatal("tuple budget too small")
	}
}

func TestWLabel(t *testing.T) {
	if wLabel(1024) != "2^10" {
		t.Fatalf("wLabel(1024) = %s", wLabel(1024))
	}
	if wLabel(1000) != "1000" {
		t.Fatalf("wLabel(1000) = %s", wLabel(1000))
	}
}

func TestMergeRatioLabels(t *testing.T) {
	rs := mergeRatios()
	if len(rs) != 7 || rs[0] != 1.0/64 || rs[6] != 1 {
		t.Fatalf("mergeRatios = %v", rs)
	}
	if ratioLabel(1) != "1" || ratioLabel(0.5) != "2^-1" {
		t.Fatalf("labels: %s %s", ratioLabel(1), ratioLabel(0.5))
	}
}

// Every registered experiment must run at Quick scale and emit its header
// plus at least one data row. This is the end-to-end harness smoke test.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	cfg := Config{Scale: Quick, Threads: 2, Seed: 7}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			e.Run(cfg, &buf)
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("output missing experiment id:\n%s", out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) < 3 {
				t.Fatalf("output has %d lines, want header + columns + data:\n%s", len(lines), out)
			}
			// Every data line must have the same number of columns as the
			// column header.
			cols := len(strings.Split(lines[1], "\t"))
			for _, l := range lines[2:] {
				if got := len(strings.Split(l, "\t")); got != cols {
					t.Fatalf("ragged table: %d vs %d columns in %q", got, cols, l)
				}
			}
		})
	}
}
