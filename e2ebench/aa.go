package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// endToEnd lists the end-to-end metrics with the bound BENCHMARK.json gives
// each: the relative worsening that counts as a regression.
var endToEnd = []struct {
	name   string
	higher bool // higher is better
	bound  float64
}{
	{"throughput_tps", true, 0.25},
	{"lat_p50_us", false, 0.25},
	{"cpu_us_per_tuple", false, 0.25},
	{"heap_mb", false, 0.05},
	{"setup_s", false, 0.25},
}

// runAA answers "do two sets of runs of the same code agree?": it runs every
// workload n times, each run a fresh process with its own seed, workloads
// alternating; splits each workload's runs into the even and the odd ones; and
// compares the two medians of every end-to-end metric against its bound. The
// table it prints is Markdown (bench AA_RESULTS.md is one such output).
func runAA(n int, seed uint64, seconds int, e env) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][2][]float64) // "workload/metric" -> even runs, odd runs
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "aa: run %d/%d of %s\n", i+1, n, w.name)
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+uint64(i)),
				"-seconds", fmt.Sprint(seconds), "-out", e.out, "-scratch", e.scratch)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			got, err := lastResult(stdout)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			for _, m := range endToEnd {
				key := w.name + "/" + m.name
				sets := values[key]
				sets[i%2] = append(sets[i%2], got[m.name])
				values[key] = sets
			}
		}
	}

	fmt.Printf("A/A check: %d runs per workload, seeds %d..%d, %d s each, split into even and odd runs.\n\n", n, seed, seed+uint64(n)-1, seconds)
	fmt.Println("| workload | metric | median A | median B | worse by | bound | |")
	fmt.Println("|---|---|---:|---:|---:|---:|---|")
	failed := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			sets := values[w.name+"/"+m.name]
			a, b := median(sets[0]), median(sets[1])
			// How much worse the worse set is, as a share of the better one.
			worse := (max(a, b) - min(a, b)) / min(a, b)
			if m.higher {
				worse = (max(a, b) - min(a, b)) / max(a, b)
			}
			verdict := "ok"
			if worse > m.bound {
				verdict = "OVER"
				failed++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.2f%% | %.0f%% | %s |\n", w.name, m.name, a, b, 100*worse, 100*m.bound, verdict)
		}
	}
	fmt.Print("\nEvery run, in run order (even runs are set A, odd runs set B):\n\n")
	fmt.Println("| workload | metric | values |")
	fmt.Println("|---|---|---|")
	for _, w := range workloads {
		for _, m := range endToEnd {
			sets := values[w.name+"/"+m.name]
			var cells []string
			for i := 0; i < n; i++ {
				cells = append(cells, fmt.Sprintf("%.4g", sets[i%2][i/2]))
			}
			fmt.Printf("| %s | %s | %s |\n", w.name, m.name, strings.Join(cells, " "))
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric(s) differ between the two sets by more than their bound", failed)
	}
	return nil
}

// lastResult parses the result line — the last line of a run's output.
func lastResult(stdout []byte) (map[string]float64, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  uint64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run incorrect or with %d failed ops", res.Failed)
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		out[name] = v.Value
	}
	return out, nil
}
