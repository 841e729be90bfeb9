package bench

import (
	"strings"
	"testing"
	"time"
)

func TestParseTable(t *testing.T) {
	out := "# abl-adaptive — static vs adaptive (Mtps)\n" +
		"workload\tstatic\tadaptive\n" +
		"step-skew\t1.2\t1.4\n" +
		"# (abl-adaptive took 3s)\n" +
		"gaussian\t1.3\t1.3\n"
	tab, err := ParseTable(out)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "abl-adaptive" || tab.Title != "static vs adaptive (Mtps)" {
		t.Fatalf("header parsed as %q / %q", tab.ID, tab.Title)
	}
	if len(tab.Columns) != 3 || tab.Columns[2] != "adaptive" {
		t.Fatalf("columns = %v", tab.Columns)
	}
	if len(tab.Rows) != 2 || tab.Rows[1][0] != "gaussian" {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestParseTableErrors(t *testing.T) {
	if _, err := ParseTable("no header\n1\t2\n"); err == nil {
		t.Fatal("missing header accepted")
	}
	if _, err := ParseTable("# fig1 — title only\n"); err == nil {
		t.Fatal("missing column row accepted")
	}
}

func TestReportAdd(t *testing.T) {
	r := NewReport("quick", 4, 42)
	if r.CalibMtps <= 0 {
		t.Fatalf("calibration = %v, want > 0", r.CalibMtps)
	}
	if r.GOMAXPROCS < 1 || !strings.HasPrefix(r.GoVersion, "go") {
		t.Fatalf("host fields = %+v", r)
	}
	err := r.Add("# fig1 — a title\na\tb\n1\t2\n", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Experiments) != 1 || r.Experiments[0].Seconds != 2 || r.Experiments[0].ID != "fig1" {
		t.Fatalf("experiments = %+v", r.Experiments)
	}
	if err := r.Add("garbage", time.Second); err == nil {
		t.Fatal("unparseable output accepted")
	}
}

// Every experiment's real output must round-trip through ParseTable — this
// pins the contract cmd/pimbench -json relies on. Runs one representative
// experiment to stay fast (TestAllExperimentsRunQuick covers the rest's
// shape already).
func TestParseTableOnRealOutput(t *testing.T) {
	var buf strings.Builder
	e, ok := ByID("abl-shardskew")
	if !ok {
		t.Fatal("abl-shardskew not registered")
	}
	if testing.Short() {
		t.Skip("experiment run skipped in -short mode")
	}
	e.Run(Config{Scale: Quick, Threads: 2, Seed: 7}, &buf)
	tab, err := ParseTable(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "abl-shardskew" || len(tab.Rows) != 3 {
		t.Fatalf("parsed %q with %d rows", tab.ID, len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("ragged row %v vs columns %v", row, tab.Columns)
		}
	}
}
