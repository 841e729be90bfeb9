package server

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"pimtree"
)

// testConn is a connection with no reader or writer goroutine behind it and
// a queue bound of limit: tests step its queue and writer by hand.
func testConn(t testing.TB, limit int) *conn {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return newConn(&Server{opts: Options{SubscriberQueue: limit, MaxFrame: DefaultMaxFrame}}, a)
}

// queued reports a connection's queue accounting.
func queued(c *conn) (items, matches, others int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.matches, c.others
}

// blocked runs f on its own goroutine and reports whether it is still
// running after a short wait, returning a channel with f's result.
func blocked(f func() bool) (bool, <-chan bool) {
	done := make(chan bool, 1)
	go func() { done <- f() }()
	select {
	case ok := <-done:
		done <- ok
		return false, done
	case <-time.After(20 * time.Millisecond):
		return true, done
	}
}

// writeQueued is one writer step: take everything queued and encode it.
func writeQueued(t *testing.T, c *conn) {
	t.Helper()
	if err := c.writeItems(newFrameWriter(io.Discard, DefaultMaxFrame), c.take(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSubscriberQueueBound pins what SubscriberQueue counts: matches, not
// chunks. DropNewest refuses a chunk once the queued matches reach the bound
// (the last chunk accepted may overshoot it, by less than a chunk), Block
// waits at the same point, and control and result items keep their own
// depth of SubscriberQueue items beside a full match queue.
func TestSubscriberQueueBound(t *testing.T) {
	const limit = 1000
	chunk := make([]pimtree.Match, 300)

	t.Run("drop", func(t *testing.T) {
		c := testConn(t, limit)
		accepted := 0
		for c.deliver(chunk, false) {
			accepted += len(chunk)
			if accepted > limit+matchCoalesce {
				t.Fatalf("%d matches accepted under a bound of %d", accepted, limit)
			}
		}
		if accepted < limit || accepted >= limit+len(chunk) {
			t.Fatalf("accepted %d matches in %d-match chunks, want the first chunk past %d refused", accepted, len(chunk), limit)
		}
		if _, m, _ := queued(c); m != accepted {
			t.Fatalf("queue counts %d matches, %d were accepted", m, accepted)
		}
	})

	t.Run("single-match runs fill whole chunks", func(t *testing.T) {
		c := testConn(t, limit)
		for i := 0; i < limit; i++ {
			if !c.deliver(chunk[:1], false) {
				t.Fatalf("match %d refused below the bound", i)
			}
		}
		if c.deliver(chunk[:1], false) {
			t.Fatal("a match accepted with the bound reached")
		}
		if n, _, _ := queued(c); n != (limit+matchCoalesce-1)/matchCoalesce {
			t.Fatalf("%d matches queued in %d chunks, want them packed into %d", limit, n, (limit+matchCoalesce-1)/matchCoalesce)
		}
	})

	t.Run("block waits at the same point", func(t *testing.T) {
		c := testConn(t, limit)
		accepted := 0
		for accepted < limit {
			if !c.deliver(chunk, true) {
				t.Fatal("Block refused a chunk below the bound")
			}
			accepted += len(chunk)
		}
		if wait, done := blocked(func() bool { return c.deliver(chunk[:1], false) }); wait || <-done {
			t.Fatal("DropNewest did not refuse at once")
		}
		wait, done := blocked(func() bool { return c.deliver(chunk, true) })
		if !wait {
			t.Fatalf("Block did not wait with %d matches queued under a bound of %d", accepted, limit)
		}
		writeQueued(t, c)
		if !<-done {
			t.Fatal("Block refused the chunk once the writer made room")
		}
		if _, m, _ := queued(c); m != len(chunk) {
			t.Fatalf("queue counts %d matches after the writer step, want %d", m, len(chunk))
		}
	})

	t.Run("control items keep their own depth", func(t *testing.T) {
		c := testConn(t, limit)
		for c.deliver(chunk, false) {
		}
		// A member session's result items, queued with no writer running:
		// as many as before chunking, beside a full match queue.
		for i := 0; i < limit; i++ {
			if !c.send(outItem{typ: FrameResults, payload: []byte{1}}) {
				t.Fatalf("result item %d refused", i)
			}
		}
		wait, done := blocked(func() bool { return c.send(outItem{typ: FrameDrained}) })
		if !wait {
			t.Fatalf("control item queued past %d others", limit)
		}
		writeQueued(t, c)
		if !<-done {
			t.Fatal("control item refused once the writer made room")
		}
	})

	t.Run("close wakes waiters", func(t *testing.T) {
		c := testConn(t, 1)
		c.deliver(chunk, true)
		c.send(outItem{typ: FrameDrained})
		mwait, mdone := blocked(func() bool { return c.deliver(chunk, true) })
		cwait, cdone := blocked(func() bool { return c.send(outItem{typ: FrameDrained}) })
		if !mwait || !cwait {
			t.Fatalf("waiting: deliver %v, send %v; want both", mwait, cwait)
		}
		c.close()
		if <-mdone || <-cdone {
			t.Fatal("an enqueue succeeded on a closed connection")
		}
	})
}

// TestFanoutChunksKeepOrder drives fanoutBatch straight into two connection
// queues and their writers: every subscriber's wire carries the matches in
// the order they were offered, in frames of at most matchCoalesce records,
// with a control item written exactly where it was queued.
func TestFanoutChunksKeepOrder(t *testing.T) {
	s := &Server{opts: Options{Slow: Block, SubscriberQueue: 1 << 16, MaxFrame: DefaultMaxFrame}}
	subs := []*conn{testConn(t, 1<<16), testConn(t, 1<<16)}
	s.subsList.Store(&subs)
	var want []pimtree.Match
	for _, n := range []int{1, 3, matchCoalesce - 1, matchCoalesce + 5, 4096, 7} {
		b := make([]pimtree.Match, n)
		for i := range b {
			b[i] = pimtree.Match{ProbeSeq: uint64(len(want) + i), MatchSeq: uint64(n)}
		}
		s.fanoutBatch(b)
		want = append(want, b...)
	}
	cut := len(want)
	for _, c := range subs {
		c.send(outItem{typ: FrameDrained})
	}
	tail := []pimtree.Match{{ProbeSeq: 1 << 40}}
	s.fanoutBatch(tail)
	want = append(want, tail...)
	if got := s.delivered.Load(); got != uint64(len(want)) {
		t.Fatalf("delivered %d, offered %d", got, len(want))
	}
	if got := s.matchesDelivered.Load(); got != uint64(2*len(want)) {
		t.Fatalf("MatchesDelivered %d, want %d", got, 2*len(want))
	}

	for i, c := range subs {
		pr, pw := io.Pipe()
		go func() {
			w := newFrameWriter(pw, DefaultMaxFrame)
			err := c.writeItems(w, c.take(nil))
			if err == nil {
				err = w.flush()
			}
			pw.CloseWithError(err)
		}()
		var got []pimtree.Match
		drainedAt := -1
		for {
			typ, payload, err := readFrame(pr, DefaultMaxFrame)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			switch typ {
			case FrameMatch:
				if len(payload) > matchCoalesce*recMatch {
					t.Fatalf("subscriber %d: %d-byte match frame", i, len(payload))
				}
				ms, err := decodeMatches(payload)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, ms...)
			case FrameDrained:
				drainedAt = len(got)
			default:
				t.Fatalf("subscriber %d: unexpected %s frame", i, frameName(typ))
			}
		}
		if drainedAt != cut {
			t.Fatalf("subscriber %d: drained after %d matches, queued after %d", i, drainedAt, cut)
		}
		if len(got) != len(want) {
			t.Fatalf("subscriber %d: %d matches on the wire, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("subscriber %d: match %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestFanoutDeliverWriteAllocs pins the egress hot path at steady state:
// fanoutBatch → deliver → writeItems into io.Discard allocates nothing.
func TestFanoutDeliverWriteAllocs(t *testing.T) {
	s := &Server{opts: Options{Slow: Block, SubscriberQueue: 1 << 16, MaxFrame: DefaultMaxFrame}}
	c := testConn(t, 1<<16)
	s.subsList.Store(&[]*conn{c})
	w := newFrameWriter(io.Discard, DefaultMaxFrame)
	const chunks = 8
	batch := make([]pimtree.Match, chunks*matchCoalesce)
	var items []outItem
	run := func() {
		s.fanoutBatch(batch)
		items = c.take(items)
		if err := c.writeItems(w, items); err != nil {
			t.Fatal(err)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: grows the item slices and fills the chunk pool
	if allocs := testing.AllocsPerRun(100, run); !raceEnabled && allocs != 0 {
		t.Fatalf("fan-out to the wire allocates %v objects per %d chunks; want 0", allocs, chunks)
	}
	if n, m, o := queued(c); n != 0 || m != 0 || o != 0 {
		t.Fatalf("left queued: %d items, %d matches, %d others", n, m, o)
	}
}

// waitSubscribers waits until n connections are registered for egress: a
// Dial returns on the hello acknowledgement, which is queued just before the
// subscription is registered.
func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Subscribers != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers registered, want %d", s.Stats().Subscribers, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// readAll collects a subscriber's matches until the server closes the stream.
func readAll(c *Client) <-chan []pimtree.Match {
	out := make(chan []pimtree.Match, 1)
	go func() {
		var ms []pimtree.Match
		for {
			ev, err := c.ReadEvent()
			if err != nil {
				out <- ms
				return
			}
			if ev.Type == FrameMatch {
				ms = append(ms, ev.Matches...)
			}
		}
	}()
	return out
}

// inPropagationOrder reports the first position where a probe stream's
// ProbeSeq decreases, or -1: matches leave the engine per retired arrival,
// arrivals retire in admission order, and each stream's sequence numbers
// are assigned at admission.
func inPropagationOrder(ms []pimtree.Match) int {
	last := map[pimtree.StreamID]uint64{}
	for i, m := range ms {
		if m.ProbeSeq < last[m.ProbeStream] {
			return i
		}
		last[m.ProbeStream] = m.ProbeSeq
	}
	return -1
}

// TestServedOrderAcrossSubscribers: under Block, with a queue small enough
// that the fan-out waits, three subscribers of a time-window engine receive
// one and the same match sequence, in propagation order, and its multiset is
// the direct engine's.
func TestServedOrderAcrossSubscribers(t *testing.T) {
	cfg := timedCfg()
	arr := timedArrivals(8000, 21, 50)
	want, wantSt := runDirect(t, cfg, arr)
	s := startServer(t, cfg, Options{Slow: Block, SubscriberQueue: 700})
	var got []<-chan []pimtree.Match
	for i := 0; i < 3; i++ {
		c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got = append(got, readAll(c))
	}
	waitSubscribers(t, s, 3)
	feeder, err := Dial(s.Addr().String(), DialOptions{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	for lo, i := 0, 0; lo < len(arr); i++ {
		hi := min(lo+[]int{1, 9, 300, 1000}[i%4], len(arr))
		if err := feeder.PushBatch(arr[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if _, err := feeder.DrainWait(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != wantSt.Matches {
		t.Fatalf("served engine propagated %d matches, direct %d", st.Matches, wantSt.Matches)
	}
	first := <-got[0]
	if i := inPropagationOrder(first); i >= 0 {
		t.Fatalf("match %d (%+v) goes back in its probe stream's sequence", i, first[i])
	}
	if !sameMultiset(first, want) {
		t.Fatalf("served multiset differs from direct: got %d matches, want %d", len(first), len(want))
	}
	for k, ch := range got[1:] {
		ms := <-ch
		if len(ms) != len(first) {
			t.Fatalf("subscriber %d got %d matches, subscriber 0 got %d", k+1, len(ms), len(first))
		}
		for i := range ms {
			if ms[i] != first[i] {
				t.Fatalf("subscriber %d, match %d: %+v, subscriber 0 has %+v", k+1, i, ms[i], first[i])
			}
		}
	}
	if sv := s.Stats(); sv.MatchesDropped != 0 || sv.MatchesDelivered != 3*st.Matches {
		t.Fatalf("Block accounting: delivered %d, dropped %d, want %d and 0", sv.MatchesDelivered, sv.MatchesDropped, 3*st.Matches)
	}
}

// TestServedDropAccounting: under DropNewest, with one wedged and one
// reading subscriber, every match is counted once per subscriber as either
// delivered or dropped, and the reading subscriber's matches are a
// subsequence of the propagation order.
func TestServedDropAccounting(t *testing.T) {
	cfg := countCfg(pimtree.ModeSharded)
	cfg.WindowR, cfg.WindowS = 1024, 1024
	cfg.Diff = pimtree.DiffForMatchRate(1024, 8)
	arr := countArrivals(20000, 14)
	want, _ := runDirect(t, cfg, arr)
	s := startServer(t, cfg, Options{Slow: DropNewest, SubscriberQueue: 64})

	stuck, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close() // never reads
	reader, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got := readAll(reader)
	waitSubscribers(t, s, 2)

	feeder, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	if err := feeder.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	if _, err := feeder.DrainWait(); err != nil {
		t.Fatal(err)
	}
	// The acknowledgement follows the fan-out past every match of the drain.
	sv, st := s.Stats(), s.Engine().Stats()
	if st.Matches != uint64(len(want)) {
		t.Fatalf("served engine propagated %d matches, direct %d", st.Matches, len(want))
	}
	if sv.MatchesDelivered+sv.MatchesDropped != 2*st.Matches {
		t.Fatalf("delivered %d + dropped %d != 2 subscribers × %d matches", sv.MatchesDelivered, sv.MatchesDropped, st.Matches)
	}
	if sv.MatchesDropped == 0 {
		t.Fatal("a never-reading subscriber dropped nothing")
	}

	stuck.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ms := <-got
	if i := inPropagationOrder(ms); i >= 0 {
		t.Fatalf("match %d (%+v) goes back in its probe stream's sequence", i, ms[i])
	}
	// A subsequence of the direct run, which propagates in the same order.
	j := 0
	for _, m := range want {
		if j < len(ms) && ms[j] == m {
			j++
		}
	}
	if j != len(ms) {
		t.Fatalf("reading subscriber's match %d of %d (%+v) is out of propagation order", j, len(ms), ms[j])
	}
}
