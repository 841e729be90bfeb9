package queue

import (
	"testing"
	"time"
)

// drainN takes n items and checks they count up from first.
func drainN(t *testing.T, q *Queue[int], first, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if v, ok := q.Next(); !ok || v != first+i {
			t.Fatalf("Next #%d = (%d, %v), want (%d, true)", i, v, ok, first+i)
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
			drainN(t, q, 2, 1)
		}},
		{"arm clears residue left after a disarm", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			q.Push(1)
			q.Disarm()
			// What a push that loaded armed just before the disarm leaves.
			q.buf = append(q.buf, 99)
			q.Arm()
			q.Push(2)
			drainN(t, q, 2, 1)
			q.Arm() // already armed: must not drop what is buffered
			q.Push(3)
			q.Arm()
			drainN(t, q, 3, 1)
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
		{"consumed prefix is compacted", func(t *testing.T, q *Queue[int]) {
			const n = 3000
			q.Arm()
			for i := 0; i < n; i++ {
				q.Push(i)
			}
			drainN(t, q, 0, 1023)
			if q.head != 1023 || len(q.buf) != n {
				t.Fatalf("compacted early: head %d len %d", q.head, len(q.buf))
			}
			// 1024 consumed but less than half the buffer: still no copy.
			drainN(t, q, 1023, 1)
			if q.head != 1024 {
				t.Fatalf("head %d after 1024 of %d", q.head, n)
			}
			drainN(t, q, 1024, n/2-1024)
			if q.head != 0 || len(q.buf) != n-n/2 {
				t.Fatalf("not compacted at half: head %d len %d", q.head, len(q.buf))
			}
			drainN(t, q, n/2, n-n/2)
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
			drainN(t, q, 0, n)
			if cap(q.buf) > maxIdleCap {
				t.Fatalf("%d items of capacity retained after draining a burst of %d", cap(q.buf), n)
			}
			// A buffer that never outgrew the idle bound is kept, so the
			// steady state does not allocate.
			for i := 0; i < 100; i++ {
				q.Push(i)
			}
			drainN(t, q, 0, 100)
			if cap(q.buf) == 0 {
				t.Fatal("small buffer dropped when drained")
			}
		}},
		{"close ends Next after the backlog", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			q.Push(7)
			q.Close()
			drainN(t, q, 7, 1)
			if _, ok := q.Next(); ok {
				t.Fatal("Next after the backlog of a closed queue")
			}
		}},
		{"close wakes a blocked Next", func(t *testing.T, q *Queue[int]) {
			q.Arm()
			got := make(chan bool)
			go func() {
				_, ok := q.Next()
				got <- ok
			}()
			select {
			case ok := <-got:
				t.Fatalf("Next returned %v on an empty open queue", ok)
			case <-time.After(10 * time.Millisecond):
			}
			q.Close()
			if ok := <-got; ok {
				t.Fatal("Next reported an item after Close on an empty queue")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New[int]()) })
	}
}
