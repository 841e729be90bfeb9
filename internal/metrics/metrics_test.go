package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestTrafficCounting(t *testing.T) {
	Tracing = true
	defer func() { Tracing = false }()
	ResetTraffic()
	Load(100)
	Store(40)
	Load(1)
	tr := SnapshotTraffic()
	if tr.LoadBytes != 101 || tr.StoreBytes != 40 {
		t.Fatalf("traffic = %+v, want 101/40", tr)
	}
	ResetTraffic()
	if tr := SnapshotTraffic(); tr.LoadBytes != 0 || tr.StoreBytes != 0 {
		t.Fatalf("reset left %+v", tr)
	}
}

func TestTrafficDisabled(t *testing.T) {
	Tracing = false
	ResetTraffic()
	Load(100)
	Store(100)
	if tr := SnapshotTraffic(); tr.LoadBytes != 0 || tr.StoreBytes != 0 {
		t.Fatalf("disabled tracer counted %+v", tr)
	}
}

func TestTrafficConcurrent(t *testing.T) {
	Tracing = true
	defer func() { Tracing = false }()
	ResetTraffic()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				Load(2)
				Store(3)
			}
		}()
	}
	wg.Wait()
	tr := SnapshotTraffic()
	if tr.LoadBytes != 16000 || tr.StoreBytes != 24000 {
		t.Fatalf("traffic = %+v, want 16000/24000", tr)
	}
}

func TestBandwidth(t *testing.T) {
	if b := Bandwidth(2e9, time.Second); b < 1.99 || b > 2.01 {
		t.Fatalf("Bandwidth = %f, want ~2 GB/s", b)
	}
	if Bandwidth(100, 0) != 0 {
		t.Fatal("zero-duration bandwidth should be 0")
	}
}

func TestMtps(t *testing.T) {
	if m := Mtps(5_000_000, time.Second); m < 4.99 || m > 5.01 {
		t.Fatalf("Mtps = %f, want ~5", m)
	}
	if Mtps(100, 0) != 0 {
		t.Fatal("zero-duration Mtps should be 0")
	}
}

func TestPaddedCounter(t *testing.T) {
	var cs [4]PaddedCounter
	cs[1].Add(3)
	cs[1].Add(2)
	cs[3].Store(7)
	if cs[0].Load() != 0 || cs[1].Load() != 5 || cs[3].Load() != 7 {
		t.Fatalf("counters = %d %d %d", cs[0].Load(), cs[1].Load(), cs[3].Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				cs[2].Add(1)
			}
		}()
	}
	wg.Wait()
	if cs[2].Load() != 8000 {
		t.Fatalf("concurrent adds = %d, want 8000", cs[2].Load())
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		loads []uint64
		want  float64
	}{
		{nil, 0},
		{[]uint64{0, 0}, 0},
		{[]uint64{5, 5, 5, 5}, 1},
		{[]uint64{20, 0, 0, 0}, 4},
		{[]uint64{30, 10}, 1.5},
	}
	for _, c := range cases {
		if got := Imbalance(c.loads); got != c.want {
			t.Fatalf("Imbalance(%v) = %v, want %v", c.loads, got, c.want)
		}
	}
}
