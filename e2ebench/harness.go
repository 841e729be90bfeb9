package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"pimtree"
)

// metric is one named number of the output.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything one run of one workload reports.
type outcome struct {
	metrics   []metric // end-to-end metrics, or per-layer metrics of a traced run
	notes     []metric // printed, not part of the result line
	attempted uint64   // tuples pushed + matches delivered
	failed    uint64
	correct   bool
	all       tally // every match of the run, for comparing workloads on equal input
	problems  []string
}

// env is where a run may write.
type env struct {
	scratch string // WAL directories live under here when /dev/shm is not writable
	out     string // trace files
}

// walRoot picks the WAL's home: tmpfs when there is one, so that the durable
// workload measures the write path's code and not the device under it.
func (e env) walRoot() string {
	if dir, err := os.MkdirTemp("/dev/shm", "e2ebench-wal-"); err == nil {
		return dir
	}
	dir, err := os.MkdirTemp(e.scratch, "wal-")
	if err != nil {
		return filepath.Join(e.scratch, "wal")
	}
	return dir
}

// setup opens the workload, fills its windows with the warm-up tuples and
// drains; the durable workload then closes and re-opens on the same WAL
// directory, so that recovery is part of set-up and the phases that follow run
// on the recovered engine.
func setup(w workload, sz sizes, col *collector, cur *cursor, walDir string, tr *tracer, parent int32) (*session, error) {
	s, err := openSession(w, col, walDir, tr, parent)
	if err != nil {
		return nil, err
	}
	batch := make([]pimtree.Arrival, pushBatch)
	for n := 0; n < sz.warm; n += pushBatch {
		cur.fill(batch, nil)
		if err := s.push(batch); err != nil {
			return s, fmt.Errorf("warm-up push: %w", err)
		}
	}
	id := tr.begin("engine.drain", parent, -1)
	err = s.drain()
	tr.end(id)
	if err != nil || !w.durable {
		return s, err
	}
	if _, err := s.close(parent); err != nil {
		return nil, fmt.Errorf("close before recovery: %w", err)
	}
	return openSession(w, col, walDir, tr, parent)
}

// saturate pushes n equal segments as fast as the target accepts them and
// returns the n+1 boundary instants. The producer is blocked only by the
// target's own backpressure; it also returns the process CPU time at each
// boundary. A traced run passes twice the segments, has every
// second one recorded — so that traced and untraced segments cover the same
// stretch of input — and drains at the end of each, so that a segment's time
// and spans cover exactly its own tuples whatever is buffered in between.
func saturate(s *session, cur *cursor, seg, n int, tr *tracer, parent int32) (bounds, cpu []time.Duration, err error) {
	batch := make([]pimtree.Arrival, pushBatch)
	bounds = make([]time.Duration, 1, n+1)
	cpu = append(make([]time.Duration, 0, n+1), cpuTime())
	batchID := int64(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if tr != nil {
			tr.on.Store(i%2 == 1)
		}
		sid := tr.begin("segment", parent, -1)
		for n := 0; n < seg; n += pushBatch {
			cur.fill(batch, nil)
			batchID++
			id := tr.begin("engine.push", sid, batchID)
			err := s.push(batch)
			tr.end(id)
			if err != nil {
				return bounds, cpu, fmt.Errorf("saturation push: %w", err)
			}
		}
		if tr != nil {
			id := tr.begin("engine.drain", sid, -1)
			err := s.drain()
			tr.end(id)
			if err != nil {
				return bounds, cpu, fmt.Errorf("segment drain: %w", err)
			}
		}
		tr.end(sid)
		bounds = append(bounds, time.Since(start))
		cpu = append(cpu, cpuTime())
	}
	return bounds, cpu, nil
}

// phaseCost is what a saturation phase consumed, segment by segment.
type phaseCost struct {
	rates []float64 // tuples/s
	cpu   []float64 // process CPU microseconds per tuple
	wall  time.Duration
}

// tps is the median segment's rate: what the engine sustains, and a burst of
// machine noise that hits fewer than half of the segments does not move it.
func (c phaseCost) tps() float64 { return median(c.rates) }

// cpuPerTuple is the cheapest segment's cost. What a tuple costs is a property
// of the code; a busy neighbour only ever adds cycles (cache misses, slower
// wake-ups), so the cheapest of twelve segments is the cleanest reading, and
// on this runner it spreads half as much run to run as their median. The first
// segment does not count: while the queues and socket buffers in front of the
// engine fill, tuples are handed over faster than they are worked on.
func (c phaseCost) cpuPerTuple() float64 { return slices.Min(c.cpu[1:]) }

// saturation runs the closed-loop phase: GC, n segments, drain.
func saturation(s *session, cur *cursor, seg, n int, tr *tracer) (phaseCost, error) {
	runtime.GC()
	pid := tr.begin("saturation", 0, -1)
	start := time.Now()
	bounds, cpu, err := saturate(s, cur, seg, n, tr, pid)
	if err != nil {
		return phaseCost{}, err
	}
	id := tr.begin("engine.drain", pid, -1)
	err = s.drain()
	tr.end(id)
	tr.end(pid)
	cost := phaseCost{rates: segmentRates(bounds, seg), wall: time.Since(start)}
	for i := range cpu[1:] {
		cost.cpu = append(cost.cpu, float64(cpu[i+1]-cpu[i])/1e3/float64(seg))
	}
	return cost, err
}

// stage generates the workload's input and prepares the collector for a run
// whose saturation phase has nseg segments: the verification prefix, the
// brute-force sample (serial workload) and the latency tables. It also picks
// the WAL's home; cleanup removes it.
func stage(w workload, seed uint64, sz sizes, nseg int, e env) (p *pool, col *collector, walRoot string, cleanup func()) {
	p = w.pool(seed, poolSize)
	col = newCollector()
	col.prefix = prefixCounts(p, sz.prefix)
	if w.mode == pimtree.ModeSerial {
		col.sampleMask = 1<<13 - 1
		col.sampleOff = seed & col.sampleMask
	}
	pacedFrom := cursor{p: p}
	pacedFrom.skip(sz.warm + nseg*sz.seg)
	col.tagSpace(pacedFrom, sz.paced)
	cleanup = func() {}
	if w.durable {
		walRoot = e.walRoot()
		cleanup = func() { os.RemoveAll(walRoot) }
		fmt.Printf("# wal_dir %s\n", walRoot)
	}
	return p, col, walRoot, cleanup
}

// check holds the run's output against its references and fills in the
// outcome's counts: attempted is tuples pushed plus matches delivered, failed
// what was dropped on the way — or everything, when a check fails.
func (out *outcome) check(w workload, p *pool, sz sizes, col *collector, cs closeStats, pushed uint64, imbalance float64) error {
	out.all = col.all
	out.attempted = pushed + col.all.n
	out.failed = cs.run.LateDropped + cs.serve.MatchesDropped + col.untagged + cs.wal.WriteErrors
	out.correct = true
	fail := func(format string, args ...any) {
		out.correct = false
		out.failed = out.attempted
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	// The recovered engine of the durable workload counts from its re-Open.
	if got := uint64(cs.run.Tuples); !w.durable && got != pushed {
		fail("engine admitted %d tuples, %d pushed", got, pushed)
	}
	if !w.durable && cs.run.Matches != col.all.n {
		fail("engine counted %d matches, %d delivered", cs.run.Matches, col.all.n)
	}
	if len(col.lat) == 0 {
		fail("paced phase produced no latency sample")
	}
	if w.mode == pimtree.ModeSharded && imbalance > 1.05 {
		fail("shard imbalance %.3f above 1.05 on uniform keys", imbalance)
	}
	if w.mode == pimtree.ModeSerial {
		ref, probes := bruteSampled(w, p, sz.prefix, col.sampleMask, col.sampleOff)
		if got := tallyOf(col.sampled); got != ref {
			fail("brute-force check of %d probes: got %d matches (sum %016x), want %d (sum %016x)", probes, got.n, got.sum, ref.n, ref.sum)
		}
		out.notes = append(out.notes, metric{"verify.sampled_probes", float64(probes), "count"})
		return nil
	}
	ref, err := reference(w, p, sz.prefix)
	if err != nil {
		return err
	}
	if col.pre != ref {
		fail("prefix of %d tuples: got %d matches (sum %016x), reference %d (sum %016x)", sz.prefix, col.pre.n, col.pre.sum, ref.n, ref.sum)
	}
	return nil
}

// runWorkload is one untraced run: set up (three times, the last one kept),
// saturate, pace, close, check; it reports the five end-to-end metrics.
func runWorkload(w workload, seed uint64, seconds int, e env) (out outcome, err error) {
	calib0 := calibrate()
	sz := w.size(seconds, false)
	p, col, walRoot, cleanup := stage(w, seed, sz, segments, e)
	defer cleanup()

	// Throwaway set-ups first; only their duration is kept.
	var setupTimes []float64
	for i := 0; i < setups-1; i++ {
		start := time.Now()
		s, err := setup(w, sz, newCollector(), &cursor{p: p}, filepath.Join(walRoot, fmt.Sprint("setup", i)), nil, -1)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if err != nil {
			return out, err
		}
		if _, err := s.close(-1); err != nil {
			return out, fmt.Errorf("close throwaway set-up: %w", err)
		}
	}

	// The pool and the collector's tables are allocated by now, so they
	// cancel out of heap_mb.
	heap0 := liveHeap()
	cur := &cursor{p: p}
	start := time.Now()
	s, err := setup(w, sz, col, cur, filepath.Join(walRoot, "run"), nil, -1)
	setupTimes = append(setupTimes, time.Since(start).Seconds())
	if err != nil {
		return out, err
	}
	defer s.close(-1) // for the error paths; the run closes it itself below

	sat, err := saturation(s, cur, sz.seg, segments, nil)
	if err != nil {
		return out, err
	}
	imbalance := s.eng.Stats().Imbalance
	heap1 := liveHeap()

	late, err := runPaced(s, cur, col, sz.paced, nil, -1)
	if err != nil {
		return out, err
	}
	cs, err := s.close(-1)
	if err != nil {
		return out, err
	}
	calib1 := calibrate()

	pushed := uint64(sz.warm + segments*sz.seg + sz.paced.tuples())
	if err := out.check(w, p, sz, col, cs, pushed, imbalance); err != nil {
		return out, err
	}
	out.metrics = []metric{
		{"throughput_tps", sat.tps(), "1/s"},
		{"lat_p50_us", quantile(col.lat, 0.5) / 1e3, "us"},
		{"cpu_us_per_tuple", sat.cpuPerTuple(), "us"},
		{"heap_mb", (float64(heap1) - float64(heap0)) / (1 << 20), "MiB"},
		{"setup_s", median(setupTimes), "s"},
	}
	fmt.Printf("# segment_ktps")
	for _, r := range sat.rates {
		fmt.Printf(" %.0f", r/1e3)
	}
	fmt.Printf("\n# setup_s %.3f\n", setupTimes)
	out.notes = append(out.notes,
		metric{"lat_samples", float64(len(col.lat)), "count"},
		metric{"lat_samples_dropped", float64(col.overflow), "count"},
		metric{"lat_p99_us", quantile(col.lat, 0.99) / 1e3, "us"},
		metric{"gen_late_p99_us", quantile(late, 0.99) / 1e3, "us"},
		metric{"segment_iqr_pct", iqrPct(sat.rates), "%"},
		metric{"saturation_s", sat.wall.Seconds(), "s"},
		metric{"paced_s", (time.Duration(sz.paced.ticks) * sz.paced.interval).Seconds(), "s"},
		metric{"tuples", float64(pushed), "count"},
		metric{"prefix_matches", float64(col.pre.n), "count"},
		metric{"shard_imbalance", imbalance, "ratio"},
		metric{"calib_before_ns", float64(calib0), "ns"},
		metric{"calib_after_ns", float64(calib1), "ns"},
	)
	return out, nil
}

func newCollector() *collector {
	// sampleOff above sampleMask: no probe is sampled until a run asks for it.
	return &collector{sampleOff: 1}
}
