package paper

import (
	"testing"
	"time"
)

func TestStepTimer(t *testing.T) {
	var st StepTimer
	st.Add(StepSearch, 100*time.Nanosecond)
	st.Add(StepSearch, 100*time.Nanosecond)
	st.Add(StepInsert, 300*time.Nanosecond)
	st.Tick()
	st.Tick()
	if st.Total(StepSearch) != 200*time.Nanosecond {
		t.Fatalf("search total = %v", st.Total(StepSearch))
	}
	if got := st.PerTuple(StepSearch); got != 100 {
		t.Fatalf("search per tuple = %f, want 100", got)
	}
	if got := st.PerTuple(StepInsert); got != 150 {
		t.Fatalf("insert per tuple = %f, want 150", got)
	}
	if st.Tuples() != 2 {
		t.Fatalf("tuples = %d", st.Tuples())
	}
	var empty StepTimer
	if empty.PerTuple(StepScan) != 0 {
		t.Fatal("empty timer should report 0")
	}
}

func TestStepNames(t *testing.T) {
	want := map[Step]string{
		StepSearch: "search", StepScan: "scan", StepInsert: "insert",
		StepDelete: "delete", StepMerge: "merge",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestLatencyRecorder(t *testing.T) {
	r := NewLatencyRecorder(1000, 1)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	s := r.Summarize()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MeanMicros < 50 || s.MeanMicros > 51 {
		t.Fatalf("mean = %f, want ~50.5", s.MeanMicros)
	}
	if s.P50Micros < 49 || s.P50Micros > 52 {
		t.Fatalf("p50 = %f", s.P50Micros)
	}
	if s.MaxMicros != 100 {
		t.Fatalf("max = %f", s.MaxMicros)
	}
	if s.P99Micros > s.MaxMicros || s.P50Micros > s.P99Micros {
		t.Fatal("percentile ordering violated")
	}
}

func TestLatencyRecorderSampling(t *testing.T) {
	r := NewLatencyRecorder(1000, 10)
	for i := 0; i < 1000; i++ {
		r.Record(time.Microsecond)
	}
	if c := r.Count(); c != 100 {
		t.Fatalf("sampled count = %d, want 100", c)
	}
}

func TestLatencyRecorderCapacity(t *testing.T) {
	r := NewLatencyRecorder(10, 1)
	for i := 0; i < 100; i++ {
		r.Record(time.Microsecond)
	}
	if c := r.Count(); c != 10 {
		t.Fatalf("count = %d, want capacity 10", c)
	}
	if NewLatencyRecorder(0, 0).Count() != 0 {
		t.Fatal("default recorder should be empty")
	}
}

func TestLatencyEmptySummary(t *testing.T) {
	r := NewLatencyRecorder(10, 1)
	if s := r.Summarize(); s.Count != 0 || s.MeanMicros != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}
