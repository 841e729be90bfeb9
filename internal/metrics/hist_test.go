package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// histRelBound is the histogram's documented relative error: one part in
// histSubCount.
const histRelBound = 1.0 / histSubCount

// oracleQuantile is the exact quantile the histogram approximates: the
// value at rank ceil(q·n) of the sorted samples.
func oracleQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkQuantiles asserts that every histogram quantile is bounded below by
// the exact oracle value and above by the oracle value inflated by the
// bucket-width bound.
func checkQuantiles(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := &Histogram{}
	for _, v := range samples {
		h.Record(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if h.Count() != uint64(len(samples)) {
		t.Fatalf("%s: count %d, want %d", name, h.Count(), len(samples))
	}
	if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("%s: min/max %d/%d, want %d/%d", name, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
	}
	var sum float64
	for _, v := range sorted {
		sum += float64(v)
	}
	if mean := sum / float64(len(sorted)); math.Abs(h.Mean()-mean) > 1e-6*math.Abs(mean)+1e-9 {
		t.Errorf("%s: mean %f, want %f", name, h.Mean(), mean)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0} {
		want := oracleQuantile(sorted, q)
		got := h.Quantile(q)
		if got < want {
			t.Errorf("%s: q%.3f = %d undershoots exact %d", name, q, got, want)
			continue
		}
		// The estimate is the containing bucket's upper bound: at most one
		// bucket width above the exact value (and never above the observed
		// max, which the clamp enforces).
		limit := int64(math.Ceil(float64(want) * (1 + histRelBound)))
		if want < histSubCount {
			limit = want // exact region: no error allowed
		}
		if got > limit && got > sorted[len(sorted)-1] {
			t.Errorf("%s: q%.3f = %d exceeds bound %d (exact %d)", name, q, got, limit, want)
		}
		if got > limit && got <= sorted[len(sorted)-1] {
			// Clamped to max is fine only for the top ranks; anywhere else
			// the bucket bound must hold.
			if want != sorted[len(sorted)-1] {
				t.Errorf("%s: q%.3f = %d exceeds bound %d (exact %d)", name, q, got, limit, want)
			}
		}
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 50000

	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = rng.Int63n(int64(200 * time.Millisecond))
	}
	checkQuantiles(t, "uniform", uniform)

	// Bimodal: a fast mode around 100µs and a slow mode around 80ms — the
	// shape a slow-subscriber stall produces.
	bimodal := make([]int64, n)
	for i := range bimodal {
		if rng.Intn(10) == 0 {
			bimodal[i] = int64(80*time.Millisecond) + rng.Int63n(int64(5*time.Millisecond))
		} else {
			bimodal[i] = int64(100*time.Microsecond) + rng.Int63n(int64(50*time.Microsecond))
		}
	}
	checkQuantiles(t, "bimodal", bimodal)

	// Heavy tail: exponentiated uniform spanning ~7 orders of magnitude,
	// the adversarial case for linear-bucket schemes.
	heavy := make([]int64, n)
	for i := range heavy {
		heavy[i] = int64(math.Exp(rng.Float64()*16)) + 1
	}
	checkQuantiles(t, "heavy-tail", heavy)

	// Degenerate distributions.
	checkQuantiles(t, "constant", []int64{1234567, 1234567, 1234567})
	checkQuantiles(t, "single", []int64{int64(3 * time.Second)})
	checkQuantiles(t, "zeroes", []int64{0, 0, 0, 0})
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeroes")
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := &Histogram{}
	h.Record(-5)
	h.Record(10)
	if h.Count() != 2 {
		t.Fatalf("count %d, want 2 (negative observations must not be lost)", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("min %d, want clamped 0", h.Min())
	}
}

// TestHistogramBucketGeometry pins the index/upper-bound mapping inverse
// property the error bound rests on: for any value, the bucket's upper
// bound is ≥ the value and within one bucket width of it.
func TestHistogramBucketGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(v int64) {
		i := histIndex(v)
		u := histUpper(i)
		if u < v {
			t.Fatalf("value %d: upper bound %d below value", v, u)
		}
		if v >= histSubCount {
			if float64(u-v) > float64(v)*histRelBound {
				t.Fatalf("value %d: upper bound %d exceeds relative error bound", v, u)
			}
		} else if u != v {
			t.Fatalf("value %d in exact region mapped to %d", v, u)
		}
		// Monotonicity across the bucket boundary.
		if i+1 < histBuckets && histUpper(i+1) <= u {
			t.Fatalf("bucket %d: non-monotone upper bounds", i)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	check(math.MaxInt64)
}
