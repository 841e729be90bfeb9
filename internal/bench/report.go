package bench

import (
	"bufio"
	"fmt"
	"runtime"
	"strings"
	"time"

	"pimtree/internal/join"
	"pimtree/internal/paper"
)

// Table is one experiment's output in structured form: the column header
// row and the data rows of the tab-separated table every experiment prints.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// ExperimentResult is one experiment's entry in a Report.
type ExperimentResult struct {
	Table
	Seconds float64 `json:"seconds"` // wall-clock runtime of the experiment
}

// Report is the machine-readable result of a pimbench run — the format of
// the committed BENCH_*.json baselines and of the bench-regression artifacts
// CI uploads. CalibMtps records a fixed serial microbenchmark measured on
// the producing host, so cmd/benchgate can scale throughput comparisons
// across hosts of different speed.
type Report struct {
	Scale       string             `json:"scale"`
	Threads     int                `json:"threads"`
	Seed        int64              `json:"seed"`
	GoVersion   string             `json:"go"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CalibMtps   float64            `json:"calib_mtps"`
	Experiments []ExperimentResult `json:"experiments"`
}

// ParseTable parses one experiment's printed output back into a Table. The
// format is the one header/columns/rows contract the harness smoke test
// enforces: a "# id — title" line, a tab-separated column line, then data
// rows; further "#" lines are comments.
func ParseTable(out string) (Table, error) {
	var t Table
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if t.ID == "" {
				head := strings.TrimSpace(strings.TrimPrefix(line, "#"))
				if id, title, ok := strings.Cut(head, "—"); ok {
					t.ID = strings.TrimSpace(id)
					t.Title = strings.TrimSpace(title)
				}
			}
			continue
		}
		cells := strings.Split(line, "\t")
		if t.Columns == nil {
			t.Columns = cells
			continue
		}
		t.Rows = append(t.Rows, cells)
	}
	if t.ID == "" {
		return t, fmt.Errorf("bench: no \"# id — title\" header in output")
	}
	if t.Columns == nil {
		return t, fmt.Errorf("bench: experiment %s printed no column row", t.ID)
	}
	return t, nil
}

// NewReport builds an empty report carrying the run configuration and the
// host calibration measurement.
func NewReport(scale string, threads int, seed int64) *Report {
	return &Report{
		Scale:      scale,
		Threads:    threads,
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibMtps:  Calibration(),
	}
}

// Add parses an experiment's output and appends it to the report.
func (r *Report) Add(out string, elapsed time.Duration) error {
	t, err := ParseTable(out)
	if err != nil {
		return err
	}
	r.Experiments = append(r.Experiments, ExperimentResult{Table: t, Seconds: elapsed.Seconds()})
	return nil
}

// Calibration measures the throughput of a small fixed single-threaded
// serial join — a host-speed yardstick recorded in every report. Two reports
// from different machines are comparable after scaling by the ratio of their
// calibrations, which is what keeps the committed bench baseline usable on
// CI runners of a different speed class.
func Calibration() float64 {
	const w = 1 << 12
	const n = 1 << 15
	arr := twoWay(n, 7)
	st := paper.IBWJSerial(arr, join.SerialConfig{
		WR: w, WS: w, Band: bandFor(w, 2),
		Index: join.IndexPIMTree, PIM: pimSerial(),
	})
	return st.Mtps()
}
