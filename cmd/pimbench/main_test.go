package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimtree/internal/bench"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, id := range []string{"fig8a", "abl-sharded", "abl-shardskew"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("-list output missing %s:\n%s", id, out.String())
		}
	}
}

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{},                                  // no mode selected
		{"-exp", "nope"},                    // unknown experiment
		{"-exp", "fig8a", "-scale", "warp"}, // unknown scale
		{"-bogusflag"},                      // flag parse error
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Fatalf("args %v: no diagnostic on stderr", args)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "abl-shardskew", "-scale", "quick", "-threads", "2", "-seed", "7"},
		&out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "# abl-shardskew") || !strings.Contains(s, "quantile") {
		t.Fatalf("experiment output incomplete:\n%s", s)
	}
}

func TestRunJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var out, errOut strings.Builder
	code := run([]string{"-exp", "abl-shardskew", "-scale", "quick", "-threads", "2", "-json", path},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Scale != "quick" || rep.Threads != 2 || rep.Seed != 42 {
		t.Fatalf("report config = %+v", rep)
	}
	if rep.CalibMtps <= 0 {
		t.Fatal("report missing host calibration")
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "abl-shardskew" {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	if len(rep.Experiments[0].Rows) != 3 {
		t.Fatalf("abl-shardskew rows = %v", rep.Experiments[0].Rows)
	}
}

func TestEffectiveThreads(t *testing.T) {
	if effectiveThreads(3) != 3 {
		t.Fatal("explicit thread count not honored")
	}
	if effectiveThreads(0) < 1 {
		t.Fatal("default thread count must be positive")
	}
}
