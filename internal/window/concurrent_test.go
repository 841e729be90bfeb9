package window_test

import (
	"sync"
	"testing"

	"pimtree/internal/paper"
)

// paper.Window is the shared window of Section 4. It sits with the
// shared-index join in internal/paper; its tests run here, beside those of
// the single-writer windows.

func TestConcurrentAppendPublish(t *testing.T) {
	c := paper.NewWindow(8, 16)
	ref, seq := c.Append(77)
	if seq != 0 {
		t.Fatalf("seq = %d, want 0", seq)
	}
	key, gotSeq, ok := c.Get(ref)
	if !ok || key != 77 || gotSeq != 0 {
		t.Fatalf("Get = (%d,%d,%v), want (77,0,true)", key, gotSeq, ok)
	}
	if c.Head() != 1 {
		t.Fatalf("Head = %d, want 1", c.Head())
	}
}

func TestConcurrentEdgeAdvance(t *testing.T) {
	c := paper.NewWindow(8, 16)
	for i := 0; i < 5; i++ {
		c.Append(uint32(i))
	}
	if c.Edge() != 0 {
		t.Fatalf("Edge = %d, want 0", c.Edge())
	}
	// Indexing tuples 1 and 2 must not move the edge past tuple 0.
	c.MarkIndexed(1)
	c.MarkIndexed(2)
	c.TryAdvanceEdge()
	if c.Edge() != 0 {
		t.Fatalf("Edge advanced past non-indexed tuple: %d", c.Edge())
	}
	c.MarkIndexed(0)
	c.TryAdvanceEdge()
	if c.Edge() != 3 {
		t.Fatalf("Edge = %d, want 3", c.Edge())
	}
	c.MarkIndexed(4)
	c.TryAdvanceEdge()
	if c.Edge() != 3 {
		t.Fatalf("Edge = %d, want 3 (tuple 3 not indexed)", c.Edge())
	}
	c.MarkIndexed(3)
	c.TryAdvanceEdge()
	if c.Edge() != 5 {
		t.Fatalf("Edge = %d, want 5", c.Edge())
	}
}

func TestConcurrentScanRange(t *testing.T) {
	c := paper.NewWindow(16, 4)
	for i := 0; i < 10; i++ {
		c.Append(uint32(i * 3))
	}
	var keys []uint32
	c.ScanRange(4, 8, func(key uint32, seq uint64) bool {
		keys = append(keys, key)
		return true
	})
	want := []uint32{12, 15, 18, 21}
	if len(keys) != len(want) {
		t.Fatalf("ScanRange returned %d keys, want %d", len(keys), len(want))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("ScanRange[%d] = %d, want %d", i, keys[i], want[i])
		}
	}
}

func TestConcurrentStaleSlotDetection(t *testing.T) {
	c := paper.NewWindow(2, 0) // tiny window, capacity still >= 4w+2
	var refs []uint32
	for i := 0; i < c.Capacity()+3; i++ {
		ref, _ := c.Append(uint32(i))
		refs = append(refs, ref)
	}
	// The first slot has been reused; its seq must differ from 0.
	_, seq, ok := c.Get(refs[0])
	if ok && seq == 0 {
		t.Fatal("reused slot still reports original sequence")
	}
}

func TestConcurrentParallelReaders(t *testing.T) {
	c := paper.NewWindow(1024, 256)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Append(uint32(i))
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				head := c.Head()
				if head == 0 {
					continue
				}
				// Read the most recent published tuple.
				key := c.KeyAt(head - 1)
				if uint64(key) >= 5000 {
					t.Errorf("read key %d beyond feed", key)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	<-done
	wg.Wait()
	if c.Head() != 5000 {
		t.Fatalf("Head = %d, want 5000", c.Head())
	}
}

func TestConcurrentEdgeLockContention(t *testing.T) {
	c := paper.NewWindow(64, 64)
	for i := 0; i < 64; i++ {
		c.Append(uint32(i))
		c.MarkIndexed(uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.TryAdvanceEdge()
			}
		}()
	}
	wg.Wait()
	if c.Edge() != 64 {
		t.Fatalf("Edge = %d after contended advance, want 64", c.Edge())
	}
}
