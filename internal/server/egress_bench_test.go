package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pimtree"
)

// BenchmarkServedEgress measures the path from the engine's pull side to
// subscriber sockets: a feeder pushes b.N tuples over loopback into a
// 2-shard engine making about 2 matches per tuple, and 1 or 4 subscribers
// read every match until the shutdown's clean end of stream. It reports the
// matches each subscriber received per second of the whole run. It uses only
// the package's long-standing API (New, Dial, PushBatch, ReadEvent,
// DrainWait, Stats, Shutdown), so the same file runs against older
// revisions for an A/B.
func BenchmarkServedEgress(b *testing.B) {
	const w = 1 << 12
	arr := countArrivals(1<<16, 41)
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			e, err := pimtree.Open(pimtree.Config{
				Mode: pimtree.ModeSharded, Shards: 2,
				WindowR: w, WindowS: w, Diff: pimtree.DiffForMatchRate(w, 2),
			})
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(e, Options{Addr: "127.0.0.1:0", SubscriberQueue: 1 << 16, Slow: Block})
			if err != nil {
				b.Fatal(err)
			}
			counts := make(chan int, subs)
			for i := 0; i < subs; i++ {
				c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				go func() {
					n := 0
					for {
						ev, err := c.ReadEvent()
						if err != nil {
							counts <- n
							return
						}
						n += len(ev.Matches)
					}
				}()
			}
			feeder, err := Dial(s.Addr().String(), DialOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer feeder.Close()
			for s.Stats().Subscribers != subs {
				time.Sleep(time.Millisecond) // registered just after the hello ack
			}
			b.ResetTimer()
			for left := b.N; left > 0; {
				n := min(left, 512)
				lo := (b.N - left) % len(arr)
				batch := arr[lo:min(lo+n, len(arr))]
				if err := feeder.PushBatch(batch); err != nil {
					b.Fatal(err)
				}
				left -= len(batch)
			}
			// Everything pushed is admitted before the shutdown stops ingest.
			if _, err := feeder.DrainWait(); err != nil {
				b.Fatal(err)
			}
			st, err := s.Shutdown(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for i := 0; i < subs; i++ {
				total += <-counts
			}
			b.StopTimer()
			if total != subs*int(st.Matches) {
				b.Fatalf("%d subscribers read %d matches, engine propagated %d each", subs, total, st.Matches)
			}
			b.ReportMetric(float64(st.Matches)/b.Elapsed().Seconds(), "matches/s")
		})
	}
}
