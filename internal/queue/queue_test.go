package queue

import (
	"testing"
	"time"
)

// take calls NextBatch once and checks the batch counts up from first with
// length n.
func take(t *testing.T, q *Queue[int], first, n int) {
	t.Helper()
	b, ok := q.NextBatch(nil)
	if !ok || len(b) != n {
		t.Fatalf("NextBatch = %d items, ok %v; want %d, true", len(b), ok, n)
	}
	for i, v := range b {
		if v != first+i {
			t.Fatalf("item %d = %d, want %d", i, v, first+i)
		}
	}
}

func TestQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, q *Queue[int])
	}{
		{"disarmed pushes are dropped", func(t *testing.T, q *Queue[int]) {
			q.Push(1)
			q.Arm()
			q.Push(2)
			take(t, q, 2, 1)
		}},
		{"arm clears residue left after a disarm", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			q.Push(1)
			q.Disarm()
			// What a push that loaded armed just before the disarm leaves.
			q.buf = append(q.buf, 99)
			q.Arm()
			q.Push(2)
			take(t, q, 2, 1)
			q.Arm() // already armed: must not drop what is buffered
			q.Push(3)
			q.Arm()
			take(t, q, 3, 1)
		}},
		{"breaking out of All disarms", func(t *testing.T, q *Queue[int]) {
			seq := q.All()
			q.Push(1)
			q.Push(2)
			for v := range seq {
				if v != 1 {
					t.Fatalf("first item %d", v)
				}
				break
			}
			if q.armed.Load() || len(q.buf) != 0 {
				t.Fatalf("armed=%v with %d buffered after break", q.armed.Load(), len(q.buf))
			}
		}},
		{"NextBatch takes at most maxBatch, in order across takes", func(t *testing.T, q *Queue[int]) {
			const n = maxBatch + 904
			q.Arm()
			for i := 0; i < n; i++ {
				q.Push(i)
			}
			take(t, q, 0, maxBatch)
			q.Push(n)
			take(t, q, maxBatch, n+1-maxBatch)
			// A batch is appended to dst, not written over it.
			q.Push(7)
			b, ok := q.NextBatch([]int{5, 6})
			if !ok || len(b) != 3 || b[0] != 5 || b[1] != 6 || b[2] != 7 {
				t.Fatalf("NextBatch onto [5 6] = %v, %v", b, ok)
			}
		}},
		{"consumed prefix is compacted", func(t *testing.T, q *Queue[int]) {
			const n = 3*maxBatch - 2000
			q.Arm()
			for i := 0; i < n; i++ {
				q.Push(i)
			}
			// One batch consumed, less than half the buffer: no copy yet.
			take(t, q, 0, maxBatch)
			if q.head != maxBatch || len(q.buf) != n {
				t.Fatalf("compacted early: head %d len %d", q.head, len(q.buf))
			}
			// Past half: the rest moves to the front.
			take(t, q, maxBatch, maxBatch)
			if q.head != 0 || len(q.buf) != n-2*maxBatch {
				t.Fatalf("not compacted at half: head %d len %d", q.head, len(q.buf))
			}
			take(t, q, 2*maxBatch, n-2*maxBatch)
			if q.head != 0 || len(q.buf) != 0 {
				t.Fatalf("not reset when drained: head %d len %d", q.head, len(q.buf))
			}
		}},
		{"a drained burst does not pin its buffer", func(t *testing.T, q *Queue[int]) {
			const n = 100_000
			q.Arm()
			for i := 0; i < n; i++ {
				q.Push(i)
			}
			for first := 0; first < n; first += maxBatch {
				take(t, q, first, min(maxBatch, n-first))
			}
			if cap(q.buf) > maxIdleCap {
				t.Fatalf("%d items of capacity retained after draining a burst of %d", cap(q.buf), n)
			}
			// A buffer that never outgrew the idle bound is kept, so the
			// steady state does not allocate.
			for i := 0; i < 100; i++ {
				q.Push(i)
			}
			take(t, q, 0, 100)
			if cap(q.buf) == 0 {
				t.Fatal("small buffer dropped when drained")
			}
		}},
		{"close ends NextBatch after the backlog", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			q.Push(7)
			q.Push(8)
			q.Close()
			take(t, q, 7, 2)
			if b, ok := q.NextBatch(nil); ok || len(b) != 0 {
				t.Fatalf("NextBatch after the backlog of a closed queue = %v, %v", b, ok)
			}
		}},
		{"close wakes a blocked NextBatch", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			got := make(chan bool)
			go func() {
				_, ok := q.NextBatch(nil)
				got <- ok
			}()
			select {
			case ok := <-got:
				t.Fatalf("NextBatch returned %v on an empty open queue", ok)
			case <-time.After(10 * time.Millisecond):
			}
			q.Close()
			if ok := <-got; ok {
				t.Fatal("NextBatch reported items after Close on an empty queue")
			}
		}},
		{"Batches reuses one slice and ends at close", func(t *testing.T, q *Queue[int]) {
			seq := q.Batches()
			q.Push(1)
			q.Push(2)
			var first *int
			steps := 0
			for b := range seq {
				steps++
				switch steps {
				case 1:
					if len(b) != 2 || b[0] != 1 || b[1] != 2 {
						t.Fatalf("first batch %v", b)
					}
					first = &b[0]
					q.Push(3)
					q.Close()
				case 2:
					if len(b) != 1 || b[0] != 3 || &b[0] != first {
						t.Fatalf("second batch %v (reused slice: %v)", b, &b[0] == first)
					}
				}
			}
			if steps != 2 {
				t.Fatalf("%d batches, want 2", steps)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New[int]()) })
	}
}
