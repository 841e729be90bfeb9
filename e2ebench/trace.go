package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the call. Parent is the index of the span that caused it (-1 for a root);
// Batch is the identifier the spans of one pushed batch share (-1 when the
// span belongs to no batch).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int64  `json:"batch"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how an untraced run switches tracing off; a traced run
// flips on to compare traced and untraced segments of one phase.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int32, batch int64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Batch: batch})
	t.mu.Unlock()
	return id
}

// end closes a span and returns how long it lasted.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	end := t.now()
	t.mu.Lock()
	s := &t.spans[id]
	s.End = end
	d := time.Duration(end - s.Start)
	t.mu.Unlock()
	return d
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Count int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part covered by child spans
}

// selfTimes folds the spans by name. A span's self time is its duration minus
// the union of the intervals its children cover inside it.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		ch := kids[int32(i)]
		slices.SortFunc(ch, func(a, b int32) int { return cmp.Compare(spans[a].Start, spans[b].Start) })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(spans[c].Start, edge), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered)
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as JSON at dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
