// Zero-allocation pins for the steady-state hot path: ingest → probe →
// match emission must not allocate once the windows are warm. The workload
// is periodic (keys cycle with the window size), so every push evicts the
// same key it inserts and the index mutates leaf-locally — the structural
// steady state the pins require. The same paths run under -race in the
// nightly sweep with the exact-zero assertion relaxed (the detector's
// instrumentation allocates).
package pimtree_test

import (
	"context"
	"runtime"
	"testing"

	"pimtree"
)

const allocWindow = 1 << 10

// allocFeeder generates the periodic two-stream workload: each stream's
// window holds exactly keys 0..W-1, one each, so with Diff 0 every push
// finds exactly one match in the opposite stream in steady state.
type allocFeeder struct {
	n     uint64
	batch []pimtree.Arrival
}

func (f *allocFeeder) next() pimtree.Arrival {
	s := pimtree.R
	if f.n%2 == 1 {
		s = pimtree.S
	}
	a := pimtree.Arrival{Stream: s, Key: uint32((f.n / 2) % allocWindow)}
	f.n++
	return a
}

// fill populates the reusable batch slice with the next n arrivals.
func (f *allocFeeder) fill(n int) []pimtree.Arrival {
	if cap(f.batch) < n {
		f.batch = make([]pimtree.Arrival, n)
	}
	f.batch = f.batch[:n]
	for i := range f.batch {
		f.batch[i] = f.next()
	}
	return f.batch
}

func openAlloc(t testing.TB, cfg pimtree.Config) (*pimtree.Engine, *allocFeeder, *uint64) {
	t.Helper()
	matches := new(uint64)
	cfg.OnMatch = func(pimtree.Match) { *matches++ }
	e, err := pimtree.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close(context.Background()) })
	f := &allocFeeder{}
	// Warm both windows past one full eviction cycle so every structural
	// allocation (index nodes, ring buffers, batch free-lists, probe
	// scratch) has happened.
	for i := 0; i < 6*allocWindow; i++ {
		a := f.next()
		if err := e.Push(a.Stream, a.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e, f, matches
}

// TestZeroAllocSerialProbe pins the serial runtime: push → band probe →
// match emission → evict → insert allocates nothing in steady state, pushed
// one tuple at a time or as a batch (whose TS descents are located ahead).
// The PIM-Tree backend is pinned to a small bound instead of exact zero: its
// probe and insert paths are allocation-free, but the amortized TS→TI merge
// (MergeFiltered run, cstree.Build, subindex install) rebuilds structures by
// design, and those builds land inside whichever measured run triggers them.
func TestZeroAllocSerialProbe(t *testing.T) {
	for _, tc := range []struct {
		be    pimtree.Backend
		bound float64 // max allocations per 32-tuple run
	}{
		{pimtree.BPlusTree, 0},
		{pimtree.PIMTree, 32}, // ≤1/push amortized merge cost; probe itself is zero
	} {
		t.Run(tc.be.String(), func(t *testing.T) {
			e, f, matches := openAlloc(t, pimtree.Config{
				Mode:    pimtree.ModeSerial,
				WindowR: allocWindow, WindowS: allocWindow,
				Backend: tc.be,
			})
			before := *matches
			allocs := testing.AllocsPerRun(200, func() {
				for i := 0; i < 32; i++ {
					a := f.next()
					if err := e.Push(a.Stream, a.Key); err != nil {
						t.Fatal(err)
					}
				}
			})
			if *matches == before {
				t.Fatal("probe produced no matches; the pin is not exercising the match path")
			}
			if !raceEnabled && allocs > tc.bound {
				t.Fatalf("serial push allocates %v objects per 32-tuple run; want <= %v", allocs, tc.bound)
			}
		})
		t.Run(tc.be.String()+"/PushBatch", func(t *testing.T) {
			e, f, matches := openAlloc(t, pimtree.Config{
				Mode:    pimtree.ModeSerial,
				WindowR: allocWindow, WindowS: allocWindow,
				Backend: tc.be,
			})
			before := *matches
			allocs := testing.AllocsPerRun(200, func() {
				if err := e.PushBatch(f.fill(32)); err != nil {
					t.Fatal(err)
				}
			})
			if *matches == before {
				t.Fatal("batch produced no matches; the pin is not exercising the match path")
			}
			if !raceEnabled && allocs > tc.bound {
				t.Fatalf("serial batch push allocates %v objects per 32-tuple batch; want <= %v", allocs, tc.bound)
			}
		})
	}
}

// TestZeroAllocShardedPush pins the sharded runtime: batch push through the
// router (enqueue, worker locate and probe, propagate) plus a synchronous
// drain allocates nothing in steady state. The PIM-Tree row has the serial
// pin's amortized-merge bound.
func TestZeroAllocShardedPush(t *testing.T) {
	for _, tc := range []struct {
		be    pimtree.Backend
		bound float64 // max allocations per 64-tuple run
	}{
		{pimtree.BPlusTree, 0},
		{pimtree.PIMTree, 32},
	} {
		t.Run(tc.be.String(), func(t *testing.T) {
			e, f, matches := openAlloc(t, pimtree.Config{
				Mode:    pimtree.ModeSharded,
				WindowR: allocWindow, WindowS: allocWindow,
				Backend:       tc.be,
				Shards:        4,
				QueueCapacity: 256, // small ring so the warmup covers a full slot cycle
			})
			bg := context.Background()
			before := *matches
			allocs := testing.AllocsPerRun(100, func() {
				if err := e.PushBatch(f.fill(64)); err != nil {
					t.Fatal(err)
				}
				if err := e.Drain(bg); err != nil {
					t.Fatal(err)
				}
			})
			if *matches == before {
				t.Fatal("sharded push produced no matches")
			}
			if !raceEnabled && allocs > tc.bound {
				t.Fatalf("sharded batch push allocates %v objects per 64-tuple run; want <= %v", allocs, tc.bound)
			}
		})
	}
}

// TestZeroAllocMatchFanout pins match emission under fan-out pressure: a
// wide band makes every probe emit many matches through the OnMatch sink,
// and none of them may allocate.
func TestZeroAllocMatchFanout(t *testing.T) {
	e, f, matches := openAlloc(t, pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: allocWindow, WindowS: allocWindow,
		Diff:    8, // ~17 matches per probe on the periodic workload
		Backend: pimtree.BPlusTree,
	})
	before := *matches
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			a := f.next()
			if err := e.Push(a.Stream, a.Key); err != nil {
				t.Fatal(err)
			}
		}
	})
	emitted := *matches - before
	if emitted < 16*8 {
		t.Fatalf("fan-out emitted only %d matches over the measured runs", emitted)
	}
	if !raceEnabled && allocs != 0 {
		t.Fatalf("match fan-out allocates %v objects per 16-tuple run; want 0", allocs)
	}
}

// The Alloc benchmarks are the hot-path cells the CI alloc-gate job runs
// with -benchmem: allocs/op reported here must stay 0.

func BenchmarkAllocSerialProbe(b *testing.B) {
	e, f, _ := openAlloc(b, pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: allocWindow, WindowS: allocWindow,
		Backend: pimtree.BPlusTree,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := f.next()
		if err := e.Push(a.Stream, a.Key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocSerialBatch(b *testing.B) {
	e, f, _ := openAlloc(b, pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: allocWindow, WindowS: allocWindow,
		Backend: pimtree.BPlusTree,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PushBatch(f.fill(64)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocShardedPush(b *testing.B) {
	e, f, _ := openAlloc(b, pimtree.Config{
		Mode:    pimtree.ModeSharded,
		WindowR: allocWindow, WindowS: allocWindow,
		Backend:       pimtree.BPlusTree,
		Shards:        4,
		QueueCapacity: 256,
	})
	bg := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PushBatch(f.fill(64)); err != nil {
			b.Fatal(err)
		}
		if err := e.Drain(bg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocMatchFanout(b *testing.B) {
	e, f, _ := openAlloc(b, pimtree.Config{
		Mode:    pimtree.ModeSerial,
		WindowR: allocWindow, WindowS: allocWindow,
		Diff:    8,
		Backend: pimtree.BPlusTree,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := f.next()
		if err := e.Push(a.Stream, a.Key); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSerialWindowHeap pins ModeSerial's window memory at W = 2^20. Under
// the lazily pruned indexes (PIM-Tree, IM-Tree) the window stores no keys,
// so opening the engine grows the live heap by less than 1 MiB. Under the
// B+-Tree, whose eager deletes read each expired key back from the window,
// each stream keeps a 4-byte key in each of pow2Ceil(2W+2) = 2^22 slots.
func TestSerialWindowHeap(t *testing.T) {
	const w = 1 << 20
	for _, tc := range []struct {
		be       pimtree.Backend
		min, max uint64 // bounds on the live-heap growth, in bytes
	}{
		{pimtree.PIMTree, 0, 1 << 20},
		{pimtree.IMTree, 0, 1 << 20},
		{pimtree.BPlusTree, 2*4<<22 - 1<<20, 2*4<<22 + 1<<20},
	} {
		t.Run(tc.be.String(), func(t *testing.T) {
			before := liveHeap()
			e, err := pimtree.Open(pimtree.Config{
				Mode:    pimtree.ModeSerial,
				WindowR: w, WindowS: w,
				Backend:        tc.be,
				DiscardMatches: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			after := liveHeap()
			if _, err := e.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			grew := after - min(after, before)
			t.Logf("Open grew the live heap by %d B", grew)
			if grew < tc.min || grew >= tc.max {
				t.Fatalf("want growth within [%d, %d) B", tc.min, tc.max)
			}
		})
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
