package paper

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Step identifies one of the five per-tuple IBWJ cost components measured in
// Figure 9b.
type Step int

// The five steps of Figure 9b. Search is the index traversal to the first
// matching leaf position, Scan the linear walk over matching entries, Insert
// and Delete the index updates, and Merge the (amortized) delta-merge cost.
const (
	StepSearch Step = iota
	StepScan
	StepInsert
	StepDelete
	StepMerge
	numSteps
)

// String returns the figure label of the step.
func (s Step) String() string {
	switch s {
	case StepSearch:
		return "search"
	case StepScan:
		return "scan"
	case StepInsert:
		return "insert"
	case StepDelete:
		return "delete"
	case StepMerge:
		return "merge"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// StepTimer accumulates wall time per IBWJ step. It is not safe for
// concurrent use; the step breakdown experiment is single-threaded, as in the
// paper.
type StepTimer struct {
	total [numSteps]time.Duration
	count uint64
}

// Add charges d to step s.
func (t *StepTimer) Add(s Step, d time.Duration) { t.total[s] += d }

// Tick records that one tuple has been fully processed, so per-tuple averages
// can be derived.
func (t *StepTimer) Tick() { t.count++ }

// Total returns the accumulated time of step s.
func (t *StepTimer) Total(s Step) time.Duration { return t.total[s] }

// PerTuple returns the average nanoseconds per processed tuple spent in step
// s, the y-axis of Figure 9b.
func (t *StepTimer) PerTuple(s Step) float64 {
	if t.count == 0 {
		return 0
	}
	return float64(t.total[s].Nanoseconds()) / float64(t.count)
}

// Tuples returns the number of Tick calls.
func (t *StepTimer) Tuples() uint64 { return t.count }

// LatencyRecorder collects per-tuple latencies (arrival to result
// propagation) and reports summary statistics. Recording is lock-free via a
// fixed-capacity reservoir: the parallel join records every Nth tuple to keep
// the recorder off the critical path.
type LatencyRecorder struct {
	samples []time.Duration
	next    atomic.Uint64
	every   uint64
	tick    atomic.Uint64
}

// NewLatencyRecorder creates a recorder keeping at most capacity samples,
// recording one of every `every` observations (every <= 1 records all).
func NewLatencyRecorder(capacity int, every int) *LatencyRecorder {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	if every < 1 {
		every = 1
	}
	return &LatencyRecorder{samples: make([]time.Duration, capacity), every: uint64(every)}
}

// Record stores d if the sampling schedule selects it and capacity remains.
func (r *LatencyRecorder) Record(d time.Duration) {
	if r.every > 1 && r.tick.Add(1)%r.every != 0 {
		return
	}
	i := r.next.Add(1) - 1
	if i < uint64(len(r.samples)) {
		r.samples[i] = d
	}
}

// Count returns the number of stored samples.
func (r *LatencyRecorder) Count() int {
	n := r.next.Load()
	if n > uint64(len(r.samples)) {
		n = uint64(len(r.samples))
	}
	return int(n)
}

// Summary holds latency statistics in microseconds (the unit of Figure 10d).
type Summary struct {
	Count      int
	MeanMicros float64
	P50Micros  float64
	P95Micros  float64
	P99Micros  float64
	MaxMicros  float64
}

// Summarize computes latency statistics over the recorded samples.
func (r *LatencyRecorder) Summarize() Summary {
	n := r.Count()
	if n == 0 {
		return Summary{}
	}
	s := make([]time.Duration, n)
	copy(s, r.samples[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return micros(s[idx])
	}
	return Summary{
		Count:      n,
		MeanMicros: micros(sum) / float64(n),
		P50Micros:  pct(0.50),
		P95Micros:  pct(0.95),
		P99Micros:  pct(0.99),
		MaxMicros:  micros(s[n-1]),
	}
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
