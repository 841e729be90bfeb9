package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"pimtree"
	"pimtree/internal/shard"
)

// sortedQuantile is the oracle: the same closest-ranks interpolation, written
// against an explicitly sorted copy.
func sortedQuantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func TestQuantileAgainstSortedOracle(t *testing.T) {
	r := rng(7)
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.next() % 1000)
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.99, 1} {
			want := sortedQuantile(xs, q)
			if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
	if got := quantile([]int64{}, 0.5); got != 0 {
		t.Fatalf("empty slice: got %v", got)
	}
}

func TestSegmentMedian(t *testing.T) {
	// Twelve segments of 1000 tuples: eleven take 1 ms, one stalls for 10 ms.
	bounds := []time.Duration{0}
	for i := 0; i < segments; i++ {
		d := time.Millisecond
		if i == 4 {
			d = 10 * time.Millisecond
		}
		bounds = append(bounds, bounds[len(bounds)-1]+d)
	}
	rates := segmentRates(bounds, 1000)
	if len(rates) != segments {
		t.Fatalf("got %d rates", len(rates))
	}
	if got, want := (phaseCost{rates: rates}).tps(), sortedQuantile(rates, 0.5); got != want || got != 1e6 {
		t.Fatalf("median segment rate %v, oracle %v, want 1e6: one stalled segment must not move it", got, want)
	}
	if rates[4] != 1e5 {
		t.Fatalf("stalled segment rate %v, want 1e5", rates[4])
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 30, End: 60, Parent: 0},  // overlaps the first
		{Name: "child", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "grandchild", Start: 12, End: 20, Parent: 1},
	}
	lt := selfTimes(spans)
	if got := lt["parent"].Self; got != 100-(50+10) {
		t.Fatalf("parent self time %v, want 40", got)
	}
	if got := lt["child"]; got.Count != 3 || got.Total != 90 || got.Self != 82 {
		t.Fatalf("child times %+v", got)
	}
}

func TestSameSeedSameInput(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.pool(11, 1<<14), w.pool(11, 1<<14), w.pool(12, 1<<14)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different pools", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds, same pool", w.name)
		}
	}
}

// joinPool pushes n arrivals of the pool through a small serial engine and
// returns the tally.
func joinPool(t *testing.T, p *pool, n int) tally {
	t.Helper()
	col := newCollector()
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: 512, WindowS: 512, Diff: 1 << 23, OnMatch: col.engineMatch})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]pimtree.Arrival, n)
	(&cursor{p: p}).fill(batch, nil)
	if err := e.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	return col.all
}

func TestSameSeedSameMatches(t *testing.T) {
	a := joinPool(t, uniformPool(5, 1<<13), 1<<14) // wraps the pool once
	b := joinPool(t, uniformPool(5, 1<<13), 1<<14)
	c := joinPool(t, uniformPool(6, 1<<13), 1<<14)
	if a != b || a.n == 0 {
		t.Fatalf("same seed: %+v vs %+v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds gave the same matches: %+v", a)
	}
}

// imbalance is max load over mean load of keys under a 2-way range split.
func imbalance(keys []uint32) float64 {
	part := shard.NewRangePartitioner(pinnedShards)
	var load [pinnedShards]float64
	for _, k := range keys {
		load[part.ShardOf(k)]++
	}
	return max(load[0], load[1]) / (float64(len(keys)) / pinnedShards)
}

// TestFullDomainKeysBalanceTheDefaultPartitioner pins the trap that made every
// earlier "2 shards, uniform" number a one-shard number: UniformSource stops at
// KeySpace = 2^31 while RangePartitioner splits the whole uint32 domain.
func TestFullDomainKeysBalanceTheDefaultPartitioner(t *testing.T) {
	const n = 1 << 16
	p := uniformPool(3, n)
	keys := make([]uint32, n)
	for i, a := range p.arr {
		keys[i] = a.Key
	}
	if got := imbalance(keys); got > 1.05 {
		t.Errorf("full-domain generator: imbalance %.3f, want <= 1.05", got)
	}
	src := pimtree.UniformSource(3)
	for i := range keys {
		keys[i] = src.Next()
	}
	if got := imbalance(keys); got < 1.95 {
		t.Errorf("UniformSource: imbalance %.3f, want about 2 (all keys in the lower shard)", got)
	}
}

func TestHotBandPoolIsCleanCutAndWithinSlack(t *testing.T) {
	const n = 4 * shuffleBlock
	p := hotBandPool(9, n, eventGap, eventSlack)
	var maxTS uint64
	disordered := 0
	for i, a := range p.arr {
		if i%shuffleBlock == 0 && i > 0 && a.TS <= maxTS {
			// every timestamp of a block is above every one before it
			for _, b := range p.arr[i : i+shuffleBlock] {
				if b.TS <= maxTS {
					t.Fatalf("block at %d is not a clean cut", i)
				}
			}
		}
		if a.TS < maxTS {
			disordered++
			if maxTS-a.TS > eventSlack {
				t.Fatalf("arrival %d is %d late, slack is %d", i, maxTS-a.TS, eventSlack)
			}
		}
		maxTS = max(maxTS, a.TS)
	}
	if disordered == 0 {
		t.Fatal("no disorder generated")
	}
	// rank is the event-time rank per stream.
	for s := pimtree.StreamID(0); s < 2; s++ {
		var ts []uint64
		byRank := map[uint32]uint64{}
		for i, a := range p.arr {
			if a.Stream == s {
				ts = append(ts, a.TS)
				byRank[p.rank[i]] = a.TS
			}
		}
		slices.Sort(ts)
		for r, want := range ts {
			if byRank[uint32(r)] != want {
				t.Fatalf("stream %d rank %d has ts %d, want %d", s, r, byRank[uint32(r)], want)
			}
		}
	}
}

func TestPacedPlanEmitsRateTimesDuration(t *testing.T) {
	for _, rate := range []int{150_000, 300_000} {
		plan := planPaced(rate, 6)
		secs := (time.Duration(plan.ticks) * plan.interval).Seconds()
		if got, want := plan.tuples(), int(math.Round(float64(rate)*secs)); got != want {
			t.Errorf("rate %d: %d tuples over %.3f s, want %d", rate, got, secs, want)
		}
		if plan.tuples()%shuffleBlock != 0 {
			t.Errorf("rate %d: %d tuples is not a clean cut", rate, plan.tuples())
		}
		if secs < 4 || secs > 6 {
			t.Errorf("rate %d: %.3f s for a 6 s request", rate, secs)
		}
	}
}

// fakeEngine matches every tuple with itself on arrival and can stall.
type fakeEngine struct {
	col    *collector
	stall  time.Duration // first push blocks this long
	pushes int
	tuples int
	next   [2]uint64
}

func (f *fakeEngine) push(batch []pimtree.Arrival) error {
	if f.pushes == 0 {
		time.Sleep(f.stall)
	}
	f.pushes++
	f.tuples += len(batch)
	for _, a := range batch {
		f.col.engineMatch(pimtree.Match{ProbeStream: a.Stream, ProbeSeq: f.next[a.Stream]})
		f.next[a.Stream]++
	}
	return nil
}

func (f *fakeEngine) drain() error { return nil }

func pacedAgainstFake(t *testing.T, stall time.Duration) (p50 float64, tags [2][]int64, sent int) {
	t.Helper()
	plan := pacedPlan{per: 8, ticks: 64, interval: time.Millisecond}
	col := newCollector()
	cur := &cursor{p: uniformPool(1, 1<<12)}
	col.tagSpace(*cur, plan)
	f := &fakeEngine{col: col, stall: stall}
	late, err := runPaced(f, cur, col, plan, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(late) != plan.ticks || len(col.lat) != plan.tuples() || col.untagged != 0 {
		t.Fatalf("%d batches, %d samples, %d untagged", len(late), len(col.lat), col.untagged)
	}
	return quantile(col.lat, 0.5) / 1e3, col.tags, f.tuples
}

// TestPacedScheduleChargesStallsToLatency: a blocked engine raises lat_p50_us
// and leaves the scheduled send instants, and the number sent, alone.
func TestPacedScheduleChargesStallsToLatency(t *testing.T) {
	quick, quickTags, quickSent := pacedAgainstFake(t, 0)
	slow, slowTags, slowSent := pacedAgainstFake(t, 40*time.Millisecond)
	if quickSent != 8*64 || slowSent != quickSent {
		t.Fatalf("sent %d and %d tuples, want %d both times", quickSent, slowSent, 8*64)
	}
	for s := range quickTags {
		if !slices.Equal(quickTags[s], slowTags[s]) {
			t.Fatalf("stream %d: the stall moved the scheduled send instants", s)
		}
	}
	if last := quickTags[0][len(quickTags[0])-1]; last != int64(63*time.Millisecond) {
		t.Fatalf("last scheduled instant %d, want 63 ms", last)
	}
	// A 40 ms stall at the start of a 64 ms schedule: batch k leaves 40-k ms
	// late, so the median latency is about 8 ms.
	if slow < 5_000 || slow < 20*quick {
		t.Fatalf("lat_p50_us %.0f with a 40 ms stall vs %.0f without", slow, quick)
	}
}

func TestBruteForceAgreesWithSerialEngine(t *testing.T) {
	w := workload{mode: pimtree.ModeSerial, window: 256}
	p := uniformPool(4, 1<<12)
	const n = 1 << 12
	col := newCollector()
	col.prefix = prefixCounts(p, n)
	col.sampleMask, col.sampleOff = 15, 3
	e, err := pimtree.Open(pimtree.Config{Mode: pimtree.ModeSerial, WindowR: w.window, WindowS: w.window, Diff: w.diff(), OnMatch: col.engineMatch})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]pimtree.Arrival, n)
	(&cursor{p: p}).fill(batch, nil)
	if err := e.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	ref, probes := bruteSampled(w, p, n, col.sampleMask, col.sampleOff)
	if got := tallyOf(col.sampled); got != ref || ref.n == 0 || probes < n/16-2 {
		t.Fatalf("engine %+v, brute force %+v over %d probes", got, ref, probes)
	}
	if full, err := reference(w, p, n); err != nil || full != col.pre {
		t.Fatalf("reference %+v (%v), collector prefix %+v", full, err, col.pre)
	}
}

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json, the workload table
// and the metric tables from drifting apart.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s", i, spec.Workloads[i], w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Bound != m.bound || (got.Better == "higher") != m.higher {
			t.Errorf("end-to-end metric %d: %+v vs %+v", i, got, m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: %+v vs %+v", i, spec.PerLayer[i], m)
		}
	}
}
