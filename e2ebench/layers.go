package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"pimtree"
	"pimtree/internal/core"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/ooo"
	"pimtree/internal/stream"
	"pimtree/internal/wal"
	"pimtree/internal/window"
)

// layerMetrics names every per-layer metric of a traced run, in output order;
// BENCHMARK.json lists the same names. A metric that has no meaning on the
// workload being traced (wal.* without a WAL, server.* in process, core.* away
// from the serial input) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"engine.open_ms", "ms"},
	{"engine.push_ns_per_tuple", "ns"},
	{"engine.drain_ms", "ms"},
	{"engine.on_match_ns", "ns"},
	{"engine.lat_p99_us", "us"},
	{"engine.lat_max_us", "us"},
	{"engine.matches_per_tuple", "ratio"},
	{"engine.allocs_per_tuple", "ratio"},
	{"engine.gc_pause_ms", "ms"},
	{"core.probe_ns", "ns"},
	{"core.insert_ns", "ns"},
	{"core.merge_ns_per_tuple", "ns"},
	{"core.merge_max_ms", "ms"},
	{"core.merges", "count"},
	{"core.bytes_per_tuple", "B"},
	{"window.append_ns", "ns"},
	{"join.serial_ns_per_tuple", "ns"},
	{"shard.queue_depth_p50", "count"},
	{"shard.queue_hw", "count"},
	{"shard.imbalance", "ratio"},
	{"shard.cpu_ratio_vs_serial", "ratio"},
	{"shard.speedup_vs_serial", "ratio"},
	{"ooo.push_ns", "ns"},
	{"ooo.pending_max", "count"},
	{"ooo.late_dropped", "count"},
	{"wal.append_ns", "ns"},
	{"wal.sync_us", "us"},
	{"wal.fsyncs_per_ktuple", "ratio"},
	{"wal.bytes_per_rec", "B"},
	{"wal.snapshot_ms", "ms"},
	{"wal.recover_ms", "ms"},
	{"wal.replay_records", "count"},
	{"wal.write_errors", "count"},
	{"server.client_push_us", "us"},
	{"server.read_event_us", "us"},
	{"server.matches_per_event", "ratio"},
	{"server.wire_overhead_ratio", "ratio"},
	{"server.matches_dropped", "count"},
	{"server.shutdown_ms", "ms"},
	{"harness.gen_late_p99_us", "us"},
	{"harness.segment_iqr_pct", "%"},
	{"harness.calib_ns", "ns"},
	{"harness.trace_overhead_pct", "%"},
}

// replayTuples is how many arrivals a layer replay times, after its windows
// are full.
const replayTuples = 1 << 19

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runTraced is the quarter-length run behind -trace: one set-up, a saturation
// phase of 24 segments of which every second one is traced, a traced paced
// phase, and then replays of the layers this workload leans on, driven through
// their public functions with the workload's own input. Spans are recorded
// here, around the calls; nothing inside the library is instrumented.
func runTraced(w workload, seed uint64, seconds int, e env) (out outcome, err error) {
	v := make(map[string]float64)
	calib0 := calibrate()
	sz := w.size(seconds, true)
	p, col, walRoot, cleanup := stage(w, seed, sz, 2*segments, e)
	defer cleanup()
	tr := newTracer()
	root := tr.begin("run", -1, -1)
	col.tr = tr
	cur := &cursor{p: p}

	sid := tr.begin("setup", root, -1)
	s, err := setup(w, sz, col, cur, filepath.Join(walRoot, "run"), tr, sid)
	tr.end(sid)
	if err != nil {
		return out, err
	}
	defer s.close(-1) // for the error paths; the run closes it itself below
	wal0, events0, matches0 := s.eng.WALStats(), s.events, col.all.n

	stop, sampled := make(chan struct{}), make(chan []float64)
	go func() { sampled <- sampleQueues(s.eng, stop) }()
	sat, err := saturation(s, cur, sz.seg, 2*segments, tr)
	close(stop)
	depths := <-sampled
	if err != nil {
		return out, err
	}
	stats, loads := s.eng.Stats(), s.eng.ShardLoads()
	wal1, events1, matches1 := s.eng.WALStats(), s.events, col.all.n

	pid := tr.begin("paced", root, -1)
	late, err := runPaced(s, cur, col, sz.paced, tr, pid)
	tr.end(pid)
	if err != nil {
		return out, err
	}
	cs, err := s.close(root)
	if err != nil {
		return out, err
	}
	tr.end(root)

	// The untraced segments are the even ones, the traced the odd ones.
	var plain, traced []float64
	for i, r := range sat.rates {
		if i%2 == 0 {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}
	pushed := uint64(sz.warm + 2*segments*sz.seg + sz.paced.tuples())
	lt := selfTimes(tr.spans)
	// mean is the mean duration, in ns, of the spans of one name.
	mean := func(name string) float64 {
		return float64(lt[name].Total) / float64(max(lt[name].Count, 1))
	}

	v["engine.open_ms"] = mean("engine.open") / 1e6
	v["engine.drain_ms"] = mean("engine.drain") / 1e6
	v["engine.on_match_ns"] = mean("harness.on_match")
	v["engine.push_ns_per_tuple"] = float64(lt["engine.push"].Total) / float64(segments*sz.seg)
	v["engine.lat_p99_us"] = quantile(col.lat, 0.99) / 1e3
	v["engine.lat_max_us"] = quantile(col.lat, 1) / 1e3
	v["engine.matches_per_tuple"] = float64(col.all.n) / float64(pushed)
	v["engine.allocs_per_tuple"] = cs.run.AllocsPerTuple
	v["engine.gc_pause_ms"] = ms(cs.run.GCPauseTotal)

	if w.mode != pimtree.ModeSerial {
		v["shard.queue_depth_p50"] = median(depths)
		for _, l := range loads {
			v["shard.queue_hw"] = max(v["shard.queue_hw"], float64(l.QueueHW))
		}
		v["shard.imbalance"] = stats.Imbalance
	}
	if w.served {
		v["server.client_push_us"] = mean("engine.push") / 1e3
		v["server.read_event_us"] = mean("server.read_event") / 1e3
		if ev := events1 - events0; ev > 0 {
			v["server.matches_per_event"] = float64(matches1-matches0) / float64(ev)
		}
		v["server.matches_dropped"] = float64(cs.serve.MatchesDropped)
		v["server.shutdown_ms"] = mean("server.shutdown") / 1e6
	}
	if w.durable {
		v["wal.fsyncs_per_ktuple"] = 1e3 * float64(wal1.Fsyncs-wal0.Fsyncs) / float64(2*segments*sz.seg)
		if r := wal1.AppendedRecords - wal0.AppendedRecords; r > 0 {
			v["wal.bytes_per_rec"] = float64(wal1.AppendedBytes-wal0.AppendedBytes) / float64(r)
		}
		v["wal.write_errors"] = float64(cs.wal.WriteErrors)
	}
	v["harness.gen_late_p99_us"] = quantile(late, 0.99) / 1e3
	v["harness.segment_iqr_pct"] = iqrPct(plain)
	v["harness.trace_overhead_pct"] = 100 * (median(plain) - median(traced)) / median(plain)

	if err := out.check(w, p, sz, col, cs, pushed, stats.Imbalance); err != nil {
		return out, err
	}

	// Layer replays and comparison runs, by what the workload leans on.
	rid := tr.begin("replay", -1, -1)
	switch {
	case w.mode == pimtree.ModeSerial:
		replayCore(w, p, tr, rid, v)
		replayJoin(w, p, tr, rid, v)
	case w.hotBand:
		replayOOO(w, p, tr, rid, v)
		inproc := w
		inproc.served = false
		cost, err := comparisonRun(inproc, sz, p)
		if err != nil {
			return out, err
		}
		// CPU per tuple, not throughput: the per-segment drains above leave
		// the served pipeline empty at every segment start, which a closed
		// loop in process does not feel.
		v["server.wire_overhead_ratio"] = sat.cpuPerTuple() / cost.cpuPerTuple()
	default:
		if w.durable {
			if err := replayWAL(w, p, filepath.Join(walRoot, "replay"), tr, rid, v); err != nil {
				return out, err
			}
		}
		serial := w
		serial.mode, serial.durable = pimtree.ModeSerial, false
		cost, err := comparisonRun(serial, sz, p)
		if err != nil {
			return out, err
		}
		v["shard.cpu_ratio_vs_serial"] = sat.cpuPerTuple() / cost.cpuPerTuple()
		v["shard.speedup_vs_serial"] = median(plain) / cost.tps()
	}
	tr.end(rid)
	v["harness.calib_ns"] = float64(calib0+calibrate()) / 2

	path, err := tr.write(e.out, w.name)
	if err != nil {
		return out, fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("# trace %s (%d spans)\n", path, len(tr.spans))
	lt = selfTimes(tr.spans) // now with the replays' spans
	fmt.Printf("# %-28s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	names := make([]string, 0, len(lt))
	for name := range lt {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Printf("# %-28s %10d %14.3f %14.3f\n", name, lt[name].Count, ms(lt[name].Total), ms(lt[name].Self))
	}
	if o := v["harness.trace_overhead_pct"]; o > 15 {
		fmt.Printf("# WARNING: tracing cost %.1f%% of throughput; read the per-layer times with that in mind\n", o)
	}
	for _, m := range layerMetrics {
		out.metrics = append(out.metrics, metric{m.name, v[m.name], m.unit})
	}
	return out, nil
}

// sampleQueues polls the shards' pending batches every 10 ms until stop
// closes, and returns the total depth seen at each poll.
func sampleQueues(eng *pimtree.Engine, stop <-chan struct{}) []float64 {
	var depths []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return depths
		case <-tick.C:
			total := 0
			for _, l := range eng.ShardLoads() {
				total += l.QueueDepth
			}
			depths = append(depths, float64(total))
		}
	}
}

// comparisonRun sets the variant up and saturates it untraced over the input
// the traced run's plain segments saw in total: the denominator of the
// vs-serial and wire-overhead ratios.
func comparisonRun(w workload, sz sizes, p *pool) (phaseCost, error) {
	cur := &cursor{p: p}
	s, err := setup(w, sz, newCollector(), cur, "", nil, -1)
	if err != nil {
		return phaseCost{}, err
	}
	cost, err := saturation(s, cur, sz.seg, segments, nil)
	if _, cerr := s.close(-1); err == nil {
		err = cerr
	}
	return cost, err
}

// replayCore walks the serial join's loop — probe the opposite index, append
// to the own window, insert into the own index, merge when due — through the
// public functions of internal/window and internal/core, timing each step.
func replayCore(w workload, p *pool, tr *tracer, parent int32, v map[string]float64) {
	id := tr.begin("core.replay", parent, -1)
	defer tr.end(id)
	rings := [2]*window.Ring{window.NewRing(w.window), window.NewRing(w.window)}
	trees := [2]*core.PIMTree{core.NewPIMTree(w.window, core.PIMTreeConfig{}), core.NewPIMTree(w.window, core.PIMTreeConfig{})}
	band := join.Band{Diff: w.diff()}
	var opp *window.Ring
	hits := 0
	emit := func(q kv.Pair) bool {
		if _, _, live := opp.Resolve(q.Ref); live {
			hits++
		}
		return true
	}
	var live [2]func(kv.Pair) bool
	for i := range live {
		r := rings[i]
		live[i] = func(q kv.Pair) bool { return r.Live(q.Ref) }
	}

	cur := &cursor{p: p}
	one := make([]pimtree.Arrival, 1)
	var probe, appendT, insert, merge, mergeMax time.Duration
	merges := 0
	for i := 0; i < w.warm+replayTuples; i++ {
		cur.fill(one, nil)
		a := one[0]
		own := int(a.Stream)
		opp = rings[1-own]
		lo, hi := band.Range(a.Key)
		timed := i >= w.warm

		t0 := time.Now()
		trees[1-own].Query(lo, hi, emit)
		t1 := time.Now()
		ref, _, _, _ := rings[own].Append(a.Key)
		t2 := time.Now()
		trees[own].Insert(kv.Pair{Key: a.Key, Ref: ref})
		t3 := time.Now()
		if timed {
			probe += t1.Sub(t0)
			appendT += t2.Sub(t1)
			insert += t3.Sub(t2)
		}
		if trees[own].NeedsMerge() {
			mid := int32(-1)
			if timed {
				mid = tr.begin("core.merge", id, -1)
			}
			d := trees[own].MergeInPlace(live[own])
			tr.end(mid)
			if timed {
				merges++
				merge += d
				mergeMax = max(mergeMax, d)
			}
		}
	}
	n := float64(replayTuples)
	v["core.probe_ns"] = float64(probe) / n
	v["window.append_ns"] = float64(appendT) / n
	v["core.insert_ns"] = float64(insert) / n
	v["core.merge_ns_per_tuple"] = float64(merge) / n
	v["core.merge_max_ms"] = ms(mergeMax)
	v["core.merges"] = float64(merges)
	bytes := 0
	for _, t := range trees {
		m := t.Memory()
		bytes += m.TSLeafBytes + m.TSInnerBytes + m.TIBytes + m.BufferBytes
	}
	v["core.bytes_per_tuple"] = float64(bytes) / float64(rings[0].Count()+rings[1].Count())
	fmt.Printf("# core.replay hits %d over %d tuples\n", hits, w.warm+replayTuples)
}

// replayJoin times internal/join's streaming serial join on the same input,
// without a sink: engine.push_ns_per_tuple minus this is what the Engine
// wrapper and the match callback add.
func replayJoin(w workload, p *pool, tr *tracer, parent int32, v map[string]float64) {
	id := tr.begin("join.replay", parent, -1)
	defer tr.end(id)
	j := join.NewStreaming(join.SerialConfig{WR: w.window, WS: w.window, Band: join.Band{Diff: w.diff()}, Index: join.IndexPIMTree})
	cur := &cursor{p: p}
	batch := make([]pimtree.Arrival, pushBatch)
	var start time.Time
	for n := 0; n < w.warm+replayTuples; n += pushBatch {
		if n == w.warm {
			start = time.Now()
		}
		cur.fill(batch, nil)
		for _, a := range batch {
			j.Push(stream.Arrival{Stream: uint8(a.Stream), Key: a.Key})
		}
	}
	v["join.serial_ns_per_tuple"] = float64(time.Since(start)) / float64(replayTuples)
}

// replayOOO pushes the shuffled input through internal/ooo's reorder buffer.
func replayOOO(w workload, p *pool, tr *tracer, parent int32, v map[string]float64) {
	id := tr.begin("ooo.replay", parent, -1)
	defer tr.end(id)
	r := ooo.New(eventSlack, ooo.Drop, nil)
	released := 0
	emit := func(ooo.Tuple) { released++ }
	cur := &cursor{p: p}
	one := make([]pimtree.Arrival, 1)
	pending := 0
	start := time.Now()
	for i := 0; i < replayTuples; i++ {
		cur.fill(one, nil)
		a := one[0]
		r.Push(ooo.Tuple{Stream: uint8(a.Stream), Key: a.Key, TS: a.TS}, emit)
		pending = max(pending, r.Pending())
	}
	r.Flush(emit)
	v["ooo.push_ns"] = float64(time.Since(start)) / float64(replayTuples)
	v["ooo.pending_max"] = float64(pending)
	v["ooo.late_dropped"] = float64(r.LateDropped())
	if released+int(r.LateDropped()) != replayTuples {
		fmt.Printf("# ooo.replay released %d of %d\n", released, replayTuples)
	}
}

// replayWAL drives internal/wal the way two shard workers and the router do:
// inserts appended to a lane per shard (fsync every 64), explicit syncs, a
// snapshot of the full window, and then recovery of the populated directory.
func replayWAL(w workload, p *pool, dir string, tr *tracer, parent int32, v map[string]float64) error {
	id := tr.begin("wal.replay", parent, -1)
	defer tr.end(id)
	opts := wal.Options{Dir: dir, FsyncEvery: 64, WR: uint64(w.window), WS: uint64(w.window)}
	log, _, err := wal.Open(opts)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	meta := log.NewLane()
	lanes := [pinnedShards]*wal.Lane{log.NewLane(), log.NewLane()}

	cur := &cursor{p: p}
	arr := make([]pimtree.Arrival, replayTuples)
	cur.fill(arr, nil)
	var heads [2]uint64
	start := time.Now()
	for _, a := range arr {
		lanes[a.Key>>31].AppendInsert(uint8(a.Stream), a.Key, heads[a.Stream], 0)
		heads[a.Stream]++
	}
	v["wal.append_ns"] = float64(time.Since(start)) / float64(replayTuples)

	// Sync with a partly filled batch pending, as Drain finds a lane.
	const syncs = 256
	var syncTime time.Duration
	extra := make([]pimtree.Arrival, 32)
	for i := 0; i < syncs; i++ {
		cur.fill(extra, nil)
		lane := lanes[i%pinnedShards]
		for _, a := range extra {
			lane.AppendInsert(uint8(a.Stream), a.Key, heads[a.Stream], 0)
			heads[a.Stream]++
		}
		sid := tr.begin("wal.sync", id, -1)
		t0 := time.Now()
		lane.Sync()
		syncTime += time.Since(t0)
		tr.end(sid)
	}
	v["wal.sync_us"] = float64(syncTime) / 1e3 / syncs

	// Snapshot the way the router does: rotate every lane, write the live
	// window (the last w tuples of each stream), prune what it obsoletes.
	st := &wal.State{Heads: heads}
	for s := range st.WMs {
		if heads[s] > uint64(w.window) {
			st.WMs[s] = heads[s] - uint64(w.window)
		}
	}
	var seq [2]uint64
	again := cursor{p: p}
	one := make([]pimtree.Arrival, 1)
	for i := uint64(0); i < heads[0]+heads[1]; i++ {
		again.fill(one, nil)
		a := one[0]
		if seq[a.Stream] >= st.WMs[a.Stream] {
			st.Tuples = append(st.Tuples, wal.Tuple{Stream: uint8(a.Stream), Key: a.Key, Seq: seq[a.Stream]})
		}
		seq[a.Stream]++
	}
	meta.AppendWatermark(heads, 0, 0)
	meta.Rotate()
	for _, l := range lanes {
		l.Rotate()
	}
	sid := tr.begin("wal.snapshot", id, -1)
	t0 := time.Now()
	err = log.WriteSnapshot(st)
	v["wal.snapshot_ms"] = ms(time.Since(t0))
	tr.end(sid)
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	log.Prune()

	// One snapshot interval of inserts on top, so that recovery reads a
	// snapshot and a log tail, as after a crash just before the next one.
	tail := make([]pimtree.Arrival, 1<<16)
	cur.fill(tail, nil)
	for _, a := range tail {
		lanes[a.Key>>31].AppendInsert(uint8(a.Stream), a.Key, heads[a.Stream], 0)
		heads[a.Stream]++
	}
	meta.AppendWatermark(heads, 0, 0)
	meta.Close()
	for _, l := range lanes {
		l.Close()
	}

	rid := tr.begin("wal.recover", id, -1)
	t0 = time.Now()
	log2, state, err := wal.Open(opts)
	v["wal.recover_ms"] = ms(time.Since(t0))
	tr.end(rid)
	if err != nil {
		return fmt.Errorf("wal replay recovery: %w", err)
	}
	v["wal.replay_records"] = float64(log2.Stats().Snapshot().ReplayRecords)
	if state == nil || state.Heads != heads {
		return fmt.Errorf("wal replay: recovered heads differ from the %v appended", heads)
	}
	return nil
}
