package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pimtree"
)

// TestGCStatsExposed pins the GC-pressure observability surface: /stats
// carries the allocation and pause fields RunStats gained, and /metrics
// exposes the matching Prometheus families with grammatical exposition
// lines.
func TestGCStatsExposed(t *testing.T) {
	s := startServer(t, countCfg(pimtree.ModeSharded), Options{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr().String()

	c, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch(countArrivals(2000, 17)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DrainWait(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Tuples         int     `json:"tuples"`
		AllocObjects   uint64  `json:"alloc_objects"`
		AllocBytes     uint64  `json:"alloc_bytes"`
		AllocsPerTuple float64 `json:"allocs_per_tuple"`
		BytesPerTuple  float64 `json:"bytes_per_tuple"`
		GCPauseSeconds float64 `json:"gc_pause_seconds"`
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	// The counters are process-wide so exact values vary, but a session that
	// just joined 2000 tuples in a fresh process has allocated something
	// (index nodes, goroutine stacks) and the per-tuple ratios must be
	// consistent with the totals.
	if stats.Tuples != 2000 || stats.AllocObjects == 0 || stats.AllocBytes == 0 {
		t.Fatalf("/stats GC totals: %+v", stats)
	}
	wantPerTuple := float64(stats.AllocObjects) / float64(stats.Tuples)
	if diff := stats.AllocsPerTuple - wantPerTuple; diff > wantPerTuple || stats.AllocsPerTuple == 0 {
		t.Fatalf("/stats allocs_per_tuple %v inconsistent with alloc_objects %d / tuples %d (live counters may move between reads, but not this much)",
			stats.AllocsPerTuple, stats.AllocObjects, stats.Tuples)
	}
	for _, key := range []string{`"alloc_objects"`, `"alloc_bytes"`, `"allocs_per_tuple"`, `"bytes_per_tuple"`, `"gc_cycles"`, `"gc_pause_seconds"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("/stats missing %s", key)
		}
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, fam := range []string{
		"pimtree_engine_alloc_objects_total",
		"pimtree_engine_alloc_bytes_total",
		"pimtree_engine_allocs_per_tuple",
		"pimtree_engine_alloc_bytes_per_tuple",
		"pimtree_engine_gc_cycles_total",
		"pimtree_engine_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, "# HELP "+fam+" ") {
			t.Errorf("/metrics missing HELP for %s", fam)
		}
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("/metrics missing TYPE for %s", fam)
		}
		if !strings.Contains(text, "\n"+fam+" ") && !strings.HasPrefix(text, fam+" ") {
			t.Errorf("/metrics missing sample line for %s", fam)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promSampleRe.MatchString(line) && !promCommentRe.MatchString(line) {
			t.Errorf("/metrics line fails exposition grammar: %q", line)
		}
	}
}

// TestWriterEncodeBufferReuse is the regression test for the writer's
// per-connection encode buffer: coalescing match frames into an
// already-grown scratch buffer must not allocate per frame.
func TestWriterEncodeBufferReuse(t *testing.T) {
	c := testConn(t, 64)
	w := newFrameWriter(io.Discard, DefaultMaxFrame)
	m := pimtree.Match{ProbeStream: pimtree.R, ProbeSeq: 7, MatchSeq: 9}
	var items []outItem

	writeRun := func() {
		// Four queued chunk items of four matches each: one frame.
		c.mu.Lock()
		for i := 0; i < 4; i++ {
			ch := matchChunks.Get().(*[]pimtree.Match)
			*ch = append((*ch)[:0], m, m, m, m)
			c.matches += len(*ch)
			c.pushLocked(outItem{typ: FrameMatch, chunk: ch})
		}
		c.mu.Unlock()
		items = c.take(items)
		if err := c.writeItems(w, items); err != nil {
			t.Fatal(err)
		}
		if len(w.buf) != headerLen+16*recMatch {
			t.Fatalf("open frame holds %d bytes, want 16 coalesced records", len(w.buf))
		}
		if err := w.end(); err != nil {
			t.Fatal(err)
		}
		if len(c.items) != 0 || c.matches != 0 {
			t.Fatalf("writeItems left %d items, %d matches queued", len(c.items), c.matches)
		}
	}
	writeRun() // warm: first frame may grow nothing, but keep symmetry
	if allocs := testing.AllocsPerRun(100, writeRun); !raceEnabled && allocs != 0 {
		t.Fatalf("writer allocates %v objects per coalesced frame; want 0", allocs)
	}
}

// TestReadFrameIntoReuses pins the read path: after the per-connection
// buffer has grown to the largest frame seen, reading further frames does
// not allocate.
func TestReadFrameIntoReuses(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 640)
	var one bytes.Buffer
	if err := writeFrame(&one, FrameIngest, payload); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat(one.Bytes(), 8)
	r := bytes.NewReader(data)
	var rbuf []byte
	if _, _, err := readFrameInto(r, DefaultMaxFrame, &rbuf); err != nil {
		t.Fatal(err) // warm: grows rbuf once
	}
	run := func() {
		r.Reset(data)
		for {
			typ, p, err := readFrameInto(r, DefaultMaxFrame, &rbuf)
			if err == io.EOF {
				return
			}
			if err != nil || typ != FrameIngest || len(p) != len(payload) {
				t.Fatalf("frame: typ=%d len=%d err=%v", typ, len(p), err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, run); !raceEnabled && allocs != 0 {
		t.Fatalf("readFrameInto allocates %v objects per run; want 0", allocs)
	}
}

// TestDecodeArrivalsIntoReuses pins the decode path: decoding into a
// recycled slice of sufficient capacity does not allocate.
func TestDecodeArrivalsIntoReuses(t *testing.T) {
	batch := countArrivals(512, 3)
	payload := encodeArrivals(batch, false)
	dst := make([]pimtree.Arrival, 0, len(batch))
	run := func() {
		out, err := decodeArrivalsInto(dst[:0], payload, false)
		if err != nil || len(out) != len(batch) {
			t.Fatalf("decode: n=%d err=%v", len(out), err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); !raceEnabled && allocs != 0 {
		t.Fatalf("decodeArrivalsInto allocates %v objects per run; want 0", allocs)
	}
}
