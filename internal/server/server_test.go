package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"pimtree"
)

// testWindow keeps the lifecycle tests fast while producing real match
// volume.
const testWindow = 256

func countCfg(mode pimtree.Mode) pimtree.Config {
	return pimtree.Config{
		Mode:    mode,
		WindowR: testWindow, WindowS: testWindow,
		Diff:    pimtree.DiffForMatchRate(testWindow, 2),
		Backend: pimtree.PIMTree,
		Shards:  3,
	}
}

func timedCfg() pimtree.Config {
	return pimtree.Config{
		Mode:       pimtree.ModeShardedTime,
		Span:       1024,
		MaxLive:    512,
		Diff:       pimtree.DiffForMatchRate(128, 2),
		Shards:     3,
		Slack:      50,
		LatePolicy: pimtree.LateDrop,
	}
}

func countArrivals(n int, seed int64) []pimtree.Arrival {
	return pimtree.Interleave(seed, pimtree.UniformSource(seed+1), pimtree.UniformSource(seed+2), 0.5, n)
}

func timedArrivals(n int, seed int64, slack uint64) []pimtree.Arrival {
	base := countArrivals(n, seed)
	timed := pimtree.ShuffleWithinSlack(seed+9, pimtree.TimestampArrivals(seed+8, base, 8), slack)
	out := make([]pimtree.Arrival, len(timed))
	for i, a := range timed {
		out[i] = pimtree.Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
	}
	return out
}

// runDirect replays the arrivals through a bare engine and returns the full
// match stream plus the final statistics — the oracle the served path must
// reproduce.
func runDirect(t *testing.T, cfg pimtree.Config, arr []pimtree.Arrival) ([]pimtree.Match, pimtree.RunStats) {
	t.Helper()
	e, err := pimtree.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := e.Matches()
	var got []pimtree.Match
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range seq {
			got = append(got, m)
		}
	}()
	if err := e.PushBatch(arr); err != nil {
		t.Fatal(err)
	}
	st, err := e.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return got, st
}

// startServer opens an engine over cfg and serves it on ephemeral loopback
// ports. The cleanup shuts it down (idempotent, so tests may shut down
// explicitly first).
func startServer(t *testing.T, cfg pimtree.Config, o Options) *Server {
	t.Helper()
	e, err := pimtree.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.Addr = "127.0.0.1:0"
	s, err := New(e, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func multiset(ms []pimtree.Match) map[pimtree.Match]int {
	out := make(map[pimtree.Match]int, len(ms))
	for _, m := range ms {
		out[m]++
	}
	return out
}

func sameMultiset(a, b []pimtree.Match) bool {
	if len(a) != len(b) {
		return false
	}
	ma, mb := multiset(a), multiset(b)
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

// TestServedConformance pins the acceptance criterion: the loopback
// round-trip (binary ingest → match egress) produces a match multiset
// identical to direct Engine.PushBatch on the same input, for every
// network-servable mode, under varying client batch sizes.
func TestServedConformance(t *testing.T) {
	const n = 4000
	cases := []struct {
		name  string
		cfg   pimtree.Config
		timed bool
	}{
		{"serial", countCfg(pimtree.ModeSerial), false},
		{"sharded", countCfg(pimtree.ModeSharded), false},
		{"sharded-time", timedCfg(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var arr []pimtree.Arrival
			if tc.timed {
				arr = timedArrivals(n, 11, 50)
			} else {
				arr = countArrivals(n, 11)
			}
			want, wantSt := runDirect(t, tc.cfg, arr)

			s := startServer(t, tc.cfg, Options{Slow: Block})
			c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true, Timed: tc.timed})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			// Irregular batch sizes exercise framing boundaries.
			sizes := []int{1, 7, 64, 501, 1000}
			var got []pimtree.Match
			for lo, i := 0, 0; lo < len(arr); i++ {
				hi := min(lo+sizes[i%len(sizes)], len(arr))
				if err := c.PushBatch(arr[lo:hi]); err != nil {
					t.Fatal(err)
				}
				lo = hi
			}
			ms, err := c.DrainWait()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, ms...)
			if !sameMultiset(got, want) {
				t.Fatalf("served multiset differs from direct PushBatch: got %d matches, want %d", len(got), len(want))
			}

			st, err := s.Shutdown(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if st.Tuples != wantSt.Tuples || st.Matches != wantSt.Matches {
				t.Fatalf("final stats: got %d/%d tuples/matches, want %d/%d", st.Tuples, st.Matches, wantSt.Tuples, wantSt.Matches)
			}
		})
	}
}

// TestDrainSessionStaysUsable drains mid-stream and keeps pushing: the two
// drain windows together must reproduce the full direct match stream.
func TestDrainSessionStaysUsable(t *testing.T) {
	arr := countArrivals(3000, 3)
	want, _ := runDirect(t, countCfg(pimtree.ModeSharded), arr)
	s := startServer(t, countCfg(pimtree.ModeSharded), Options{Slow: Block})
	c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cut := len(arr) / 3
	if err := c.PushBatch(arr[:cut]); err != nil {
		t.Fatal(err)
	}
	m1, err := c.DrainWait()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PushBatch(arr[cut:]); err != nil {
		t.Fatal(err)
	}
	m2, err := c.DrainWait()
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(append(m1, m2...), want) {
		t.Fatalf("drain windows: got %d+%d matches, want %d total", len(m1), len(m2), len(want))
	}
}

// TestServedIdleFlushLatency checks that a subscriber sees a lone matching
// pair's match without a Drain: the ingest frame is one engine call, and its
// closing idle-lane flush ships the pair's ops although no batch filled.
func TestServedIdleFlushLatency(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   pimtree.Config
		timed bool
	}{
		{"sharded", pimtree.Config{Mode: pimtree.ModeSharded, Shards: 2, WindowR: 1024, WindowS: 1024}, false},
		{"sharded-time", pimtree.Config{Mode: pimtree.ModeShardedTime, Shards: 2, Span: 1 << 10, MaxLive: 1024}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, tc.cfg, Options{})
			c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true, Timed: tc.timed, ReadTimeout: 100 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			pair := []pimtree.Arrival{{Stream: pimtree.R, Key: 7, TS: 1}, {Stream: pimtree.S, Key: 7, TS: 2}}
			if err := c.PushBatch(pair); err != nil {
				t.Fatal(err)
			}
			ev, err := c.ReadEvent()
			if err != nil {
				t.Fatalf("no match event within the read timeout: %v", err)
			}
			want := pimtree.Match{ProbeStream: pimtree.S}
			if ev.Type != FrameMatch || len(ev.Matches) != 1 || ev.Matches[0] != want {
				t.Fatalf("event %s with matches %v, want one match %+v", frameName(ev.Type), ev.Matches, want)
			}
		})
	}
}

// rawDial opens a raw protocol connection for hand-built (malformed)
// frames.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc
}

func rawFrame(typ byte, payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)))
	out[4] = typ
	copy(out[headerLen:], payload)
	return out
}

// readRawFrame re-implements frame parsing independently of the production
// decoder, so these tests pin the wire format itself.
func readRawFrame(t *testing.T, nc net.Conn) (byte, []byte, error) {
	t.Helper()
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(nc, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	payload := make([]byte, n)
	if _, err := io.ReadFull(nc, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

const testHello = FrameHello

func helloBytes(version, flags byte) []byte {
	return rawFrame(testHello, []byte{version, flags})
}

// TestMalformedFrames sends each malformed byte sequence and expects a
// FrameError naming the violation, followed by a closed connection — and a
// server that keeps serving well-formed clients afterwards.
func TestMalformedFrames(t *testing.T) {
	cases := []struct {
		name    string
		bytes   []byte
		wantErr string
	}{
		{"ingest before hello", rawFrame(FrameIngest, []byte{0, 0, 0, 0, 1}), "first frame must be hello"},
		{"short hello payload", rawFrame(FrameHello, []byte{1}), "hello payload must be 2 bytes"},
		{"bad version", helloBytes(99, 0), "unsupported protocol version 99"},
		{"unknown flags", helloBytes(1, 0x80), "unknown hello flags"},
		{"timed flag on count engine", helloBytes(1, FlagTimed), "count-based windows"},
		{"unknown frame type", append(helloBytes(1, 0), rawFrame(0x7f, nil)...), "unexpected 0x7f frame"},
		{"match frame from client", append(helloBytes(1, 0), rawFrame(FrameMatch, make([]byte, recMatch))...), "unexpected match frame"},
		{"ragged ingest payload", append(helloBytes(1, 0), rawFrame(FrameIngest, make([]byte, recCount+1))...), "not a multiple"},
		{"invalid stream id", append(helloBytes(1, 0), rawFrame(FrameIngest, []byte{9, 0, 0, 0, 1})...), "invalid stream id"},
		{"oversized frame", append(helloBytes(1, 0), rawFrame(FrameIngest, make([]byte, 2048))...), "exceeds"},
	}
	s := startServer(t, countCfg(pimtree.ModeSerial), Options{MaxFrame: 1024})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := rawDial(t, s.Addr().String())
			if _, err := nc.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			var lastErr string
			for {
				typ, payload, err := readRawFrame(t, nc)
				if err != nil {
					break // server closed the connection
				}
				if typ == FrameError {
					lastErr = string(payload)
				}
			}
			if !strings.Contains(lastErr, tc.wantErr) {
				t.Fatalf("got error frame %q, want one containing %q", lastErr, tc.wantErr)
			}
		})
	}
	// The server survived every violation: a well-formed session still works
	// (the client splits its frames to the server's tightened MaxFrame).
	c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true, MaxFrame: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch(countArrivals(500, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DrainWait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ProtocolErrors; got < uint64(len(cases)) {
		t.Errorf("protocol errors counter: got %d, want >= %d", got, len(cases))
	}
}

func TestSubscribeRejectedOnDiscardingEngine(t *testing.T) {
	cfg := countCfg(pimtree.ModeSerial)
	cfg.DiscardMatches = true
	s := startServer(t, cfg, Options{})
	if _, err := Dial(s.Addr().String(), DialOptions{Subscribe: true}); err == nil ||
		!strings.Contains(err.Error(), "discards matches") {
		t.Fatalf("got %v, want subscription rejection", err)
	}
	// Plain ingest (and its drain ack) still works without a fan-out.
	c, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch(countArrivals(300, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DrainWait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Stats().Tuples; got != 300 {
		t.Fatalf("engine admitted %d tuples, want 300", got)
	}
}

// TestPipelinedBatchesDiscardedAfterRejection pins the failure-point
// semantics: when the engine rejects a batch (strict-mode disorder), the
// connection's batches pipelined behind it are discarded — nothing is
// ingested past the reported failure, with no silent gap.
func TestPipelinedBatchesDiscardedAfterRejection(t *testing.T) {
	cfg := timedCfg()
	cfg.Slack, cfg.LatePolicy = 0, pimtree.LateNone // strict
	s := startServer(t, cfg, Options{})

	mk := func(ts ...uint64) []pimtree.Arrival {
		out := make([]pimtree.Arrival, len(ts))
		for i, v := range ts {
			out[i] = pimtree.Arrival{Stream: pimtree.R, Key: uint32(i), TS: v}
		}
		return out
	}
	c, err := Dial(s.Addr().String(), DialOptions{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, batch := range [][]pimtree.Arrival{
		mk(10, 20, 30), // admitted
		mk(40, 5),      // rejected: timestamp regression
		mk(50, 60, 70), // pipelined past the failure — must be discarded
	} {
		// Only a batch pipelined after the rejected one may fail to send: by
		// then the server may already have closed the connection.
		if err := c.PushBatch(batch); err != nil && i < 2 {
			t.Fatal(err)
		}
	}
	ev, err := c.ReadEvent()
	if err != nil || ev.Type != FrameError || !strings.Contains(ev.Err, "timestamp-ordered") {
		t.Fatalf("got (%+v, %v), want strict-mode error frame", ev, err)
	}

	// A fresh connection drains the engine: only the first batch counts.
	c2, err := Dial(s.Addr().String(), DialOptions{Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.DrainWait(); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Stats().Tuples; got != 3 {
		t.Fatalf("engine admitted %d tuples, want 3 (nothing past the rejected batch)", got)
	}
}

// TestTimedHelloRequired pins the mode-mismatch rejection in the timed
// direction (count-engine direction is in TestMalformedFrames).
func TestTimedHelloRequired(t *testing.T) {
	s := startServer(t, timedCfg(), Options{})
	if _, err := Dial(s.Addr().String(), DialOptions{}); err == nil ||
		!strings.Contains(err.Error(), "timed flag") {
		t.Fatalf("got %v, want timed-flag rejection", err)
	}
}

// TestSlowSubscriberDrop: with DropNewest, a subscriber that never reads
// loses matches (counted) but never stalls ingest or the drain ack.
func TestSlowSubscriberDrop(t *testing.T) {
	cfg := countCfg(pimtree.ModeSerial)
	cfg.WindowR, cfg.WindowS = 1024, 1024
	cfg.Diff = pimtree.DiffForMatchRate(1024, 8)
	s := startServer(t, cfg, Options{SubscriberQueue: 8, Slow: DropNewest})

	stuck, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close() // never reads

	feeder, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	arr := countArrivals(20000, 6)
	done := make(chan error, 1)
	go func() {
		if err := feeder.PushBatch(arr); err != nil {
			done <- err
			return
		}
		_, err := feeder.DrainWait()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ingest deadlocked behind a stuck subscriber")
	}
	sv := s.Stats()
	if sv.MatchesDropped == 0 {
		t.Fatalf("expected drops behind a never-reading subscriber (delivered %d)", sv.MatchesDelivered)
	}
	if st := s.Engine().Stats(); st.Tuples != len(arr) {
		t.Fatalf("engine admitted %d tuples, want %d", st.Tuples, len(arr))
	}
}

// TestSlowSubscriberBlock: with Block and a tiny queue, a slow-but-alive
// subscriber still receives every match exactly once.
func TestSlowSubscriberBlock(t *testing.T) {
	cfg := countCfg(pimtree.ModeSerial)
	arr := countArrivals(800, 7)
	want, _ := runDirect(t, cfg, arr)
	s := startServer(t, cfg, Options{SubscriberQueue: 4, Slow: Block})

	sub, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	got := make(chan []pimtree.Match, 1)
	go func() {
		var ms []pimtree.Match
		for {
			ev, err := sub.ReadEvent()
			if err != nil {
				got <- ms
				return
			}
			if ev.Type == FrameMatch {
				ms = append(ms, ev.Matches...)
				time.Sleep(200 * time.Microsecond) // slow consumer
			}
		}
	}()

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
	if _, err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms := <-got
	if !sameMultiset(ms, want) {
		t.Fatalf("blocking subscriber: got %d matches, want %d", len(ms), len(want))
	}
	if d := s.Stats().MatchesDropped; d != 0 {
		t.Fatalf("block policy dropped %d matches", d)
	}
}

// TestDrainDoesNotStallIngestUnderBlock pins the producer-isolation
// guarantee: with the Block policy and a subscriber that stopped reading,
// a drain request stalls only its own acknowledgement — ingest from every
// connection keeps flowing.
func TestDrainDoesNotStallIngestUnderBlock(t *testing.T) {
	cfg := countCfg(pimtree.ModeSerial)
	cfg.WindowR, cfg.WindowS = 1024, 1024
	cfg.Diff = pimtree.DiffForMatchRate(1024, 8)
	s := startServer(t, cfg, Options{SubscriberQueue: 4, Slow: Block})

	stuck, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close() // never reads: wedges the fan-out under Block

	feeder, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	first := countArrivals(20000, 12)
	if err := feeder.PushBatch(first); err != nil {
		t.Fatal(err)
	}
	// The drain's ack will stall behind the wedged subscriber; ingest must
	// not. (Drain only — DrainWait would block on the ack by design.)
	if err := feeder.Drain(); err != nil {
		t.Fatal(err)
	}
	second := countArrivals(5000, 13)
	if err := feeder.PushBatch(second); err != nil {
		t.Fatal(err)
	}
	want := len(first) + len(second)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := s.Engine().Stats().Tuples; got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled behind a drain on a wedged Block subscriber: %d/%d tuples admitted",
				s.Engine().Stats().Tuples, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMidStreamShutdownDrain pins graceful-shutdown semantics: a shutdown
// racing live ingest still joins every admitted tuple and flushes every
// propagated match to the subscriber before the clean EOF.
func TestMidStreamShutdownDrain(t *testing.T) {
	cfg := countCfg(pimtree.ModeSharded)
	arr := countArrivals(6000, 8)
	syncPoint := len(arr) / 2
	wantPrefix, _ := runDirect(t, cfg, arr[:syncPoint])

	s := startServer(t, cfg, Options{Slow: Block})
	c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got := make(chan []pimtree.Match, 1)
	drained := make(chan struct{}, 1)
	go func() {
		var ms []pimtree.Match
		for {
			ev, err := c.ReadEvent()
			if err != nil {
				got <- ms
				return
			}
			switch ev.Type {
			case FrameMatch:
				ms = append(ms, ev.Matches...)
			case FrameDrained:
				drained <- struct{}{}
			}
		}
	}()

	// First half synchronously admitted (the awaited drain ack proves it) ...
	if err := c.PushBatch(arr[:syncPoint]); err != nil {
		t.Fatal(err)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("drain ack never arrived")
	}
	// ... second half still in flight when the shutdown lands.
	if err := c.PushBatch(arr[syncPoint:]); err != nil {
		t.Fatal(err)
	}
	st, err := s.Shutdown(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ms := <-got
	if uint64(len(ms)) != st.Matches {
		t.Fatalf("subscriber saw %d matches, engine propagated %d — graceful shutdown must flush all of them", len(ms), st.Matches)
	}
	if st.Tuples < syncPoint {
		t.Fatalf("engine admitted %d tuples, want at least the %d synced before shutdown", st.Tuples, syncPoint)
	}
	// Everything admitted joins exactly like a direct run over the same
	// prefix: the match stream of an incremental operator grows
	// monotonically, so the first half's multiset must be contained.
	gotSet := multiset(ms)
	for m, n := range multiset(wantPrefix) {
		if gotSet[m] < n {
			t.Fatalf("match %+v: delivered %d < %d from the admitted prefix", m, gotSet[m], n)
		}
	}
}

var promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]Inf|[0-9eE.+-]+)$`)
var promCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)

// TestAdminEndpoints drives /healthz, /stats, and /metrics against a live
// sharded session and validates the exposition format line by line.
func TestAdminEndpoints(t *testing.T) {
	s := startServer(t, countCfg(pimtree.ModeSharded), Options{AdminAddr: "127.0.0.1:0", Slow: Block})
	base := "http://" + s.AdminAddr().String()

	c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch(countArrivals(5000, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DrainWait(); err != nil {
		t.Fatal(err)
	}

	// /healthz
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz: %d %q", resp.StatusCode, body)
	}

	// /stats
	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Mode      string  `json:"mode"`
		Tuples    int     `json:"tuples"`
		Matches   uint64  `json:"matches"`
		Imbalance float64 `json:"imbalance"`
		Shards    []struct {
			Resident int `json:"resident"`
		} `json:"shards"`
		Server struct {
			IngestTuples     uint64 `json:"ingest_tuples"`
			MatchesDelivered uint64 `json:"matches_delivered"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	resp.Body.Close()
	if stats.Mode != "sharded" || stats.Tuples != 5000 || stats.Matches == 0 {
		t.Fatalf("/stats payload: %+v", stats)
	}
	if len(stats.Shards) != 3 || stats.Imbalance == 0 {
		t.Fatalf("/stats shard observability: %+v", stats)
	}
	if stats.Server.IngestTuples != 5000 || stats.Server.MatchesDelivered != stats.Matches {
		t.Fatalf("/stats server counters: %+v", stats.Server)
	}

	// /metrics
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"pimtree_engine_tuples_total 5000",
		"pimtree_engine_matches_total " + fmt.Sprint(stats.Matches),
		"pimtree_engine_shard_imbalance",
		`pimtree_shard_resident_tuples{shard="2"}`,
		"pimtree_server_ingest_tuples_total 5000",
		"pimtree_server_subscribers 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promSampleRe.MatchString(line) && !promCommentRe.MatchString(line) {
			t.Errorf("/metrics line fails exposition grammar: %q", line)
		}
	}
}

// TestAdminPprof: the profiler is served on the admin port — its index, and
// a one-second CPU profile of the live server (a gzipped protobuf).
func TestAdminPprof(t *testing.T) {
	s := startServer(t, countCfg(pimtree.ModeSharded), Options{AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr().String() + "/debug/pprof/"
	for _, c := range []struct{ path, want string }{
		{"", "goroutine"},
		{"profile?seconds=1", "\x1f\x8b"},
	} {
		resp, err := http.Get(base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), c.want) {
			t.Fatalf("GET /debug/pprof/%s: status %d, %d bytes without %q", c.path, resp.StatusCode, len(body), c.want)
		}
	}
}

// TestTuningEndpoint drives the control plane over HTTP: the GET snapshot
// reflects the live configuration, a POST delta reshapes the running engine
// without disturbing the match multiset, and bad deltas surface the
// engine's own errors with useful status codes.
func TestTuningEndpoint(t *testing.T) {
	arr := countArrivals(6000, 23)
	want, _ := runDirect(t, countCfg(pimtree.ModeSharded), arr)

	s := startServer(t, countCfg(pimtree.ModeSharded), Options{AdminAddr: "127.0.0.1:0", Slow: Block})
	base := "http://" + s.AdminAddr().String() + "/tuning"
	c, err := Dial(s.Addr().String(), DialOptions{Subscribe: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	getJSON := func(resp *http.Response, err error) tuningJSON {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/tuning: %d %s", resp.StatusCode, body)
		}
		var tn tuningJSON
		if err := json.Unmarshal(body, &tn); err != nil {
			t.Fatalf("/tuning decode: %v (%s)", err, body)
		}
		return tn
	}

	tn := getJSON(http.Get(base))
	if tn.Mode != "sharded" || tn.Shards != 3 || tn.BatchSize <= 0 || tn.QueueCapacity <= 0 {
		t.Fatalf("GET snapshot: %+v", tn)
	}
	if tn.Reconfigures != 0 || tn.Reshapes != 0 {
		t.Fatalf("GET snapshot not pristine: %+v", tn)
	}

	// First half under the opening configuration.
	if err := c.PushBatch(arr[:3000]); err != nil {
		t.Fatal(err)
	}
	got, err := c.DrainWait()
	if err != nil {
		t.Fatal(err)
	}

	// Manual delta mid-stream: grow the shard set and tighten batching in
	// one epoch.
	tn = getJSON(http.Post(base, "application/json",
		strings.NewReader(`{"shards":5,"batch_size":8}`)))
	if tn.Shards != 5 || tn.BatchSize != 8 {
		t.Fatalf("POST snapshot: %+v", tn)
	}
	if tn.Reconfigures != 1 || tn.Reshapes != 1 {
		t.Fatalf("POST counters: %+v", tn)
	}

	// Second half under the new configuration; the union must be multiset-
	// identical to the untouched direct run.
	if err := c.PushBatch(arr[3000:]); err != nil {
		t.Fatal(err)
	}
	ms, err := c.DrainWait()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, ms...)
	if !sameMultiset(got, want) {
		t.Fatalf("reshaped multiset differs from direct run: got %d matches, want %d", len(got), len(want))
	}

	// The reshape is visible on /metrics alongside the fresh high-water
	// marks.
	resp, err := http.Get("http://" + s.AdminAddr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pimtree_engine_reconfigures_total 1",
		"pimtree_shard_reshapes_total 1",
		"pimtree_tune_shards 5",
		"pimtree_tune_batch_size 8",
		`pimtree_shard_queue_depth_high_water{shard="4"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Error paths: invalid deltas carry the engine's own message, malformed
	// bodies fail early, and only GET/POST are served.
	resp, err = http.Post(base, "application/json", strings.NewReader(`{"shards":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "negative Reconfigure delta") {
		t.Fatalf("negative delta: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(base, "application/json", strings.NewReader(`{"shard_count":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
}

// TestAdminWALEndpoints validates the pimtree_wal_* exposition: a durable
// session surfaces live WAL counters on /stats and /metrics (in valid
// exposition grammar), and a session without durability omits the families
// entirely instead of exporting dead zeros.
func TestAdminWALEndpoints(t *testing.T) {
	cfg := countCfg(pimtree.ModeSharded)
	cfg.Durability = pimtree.Durability{Dir: t.TempDir(), FsyncEvery: 16, SnapshotEvery: 1024}
	s := startServer(t, cfg, Options{AdminAddr: "127.0.0.1:0", Slow: Block})
	base := "http://" + s.AdminAddr().String()

	c, err := Dial(s.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PushBatch(countArrivals(5000, 77)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DrainWait(); err != nil {
		t.Fatal(err)
	}

	// /stats: the wal block is present with live counters. Drain fsyncs
	// every lane, so by now every pushed tuple is an appended record.
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		WAL *struct {
			AppendedRecords uint64 `json:"appended_records"`
			AppendedBytes   uint64 `json:"appended_bytes"`
			Fsyncs          uint64 `json:"fsyncs"`
			Snapshots       uint64 `json:"snapshots"`
			Truncations     uint64 `json:"truncations"`
			WriteErrors     uint64 `json:"write_errors"`
		} `json:"wal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	resp.Body.Close()
	if stats.WAL == nil {
		t.Fatal("/stats omits the wal block on a durable session")
	}
	if stats.WAL.AppendedRecords < 5000 || stats.WAL.AppendedBytes == 0 || stats.WAL.Fsyncs == 0 {
		t.Fatalf("/stats wal counters not live: %+v", stats.WAL)
	}
	if stats.WAL.Snapshots < 4 { // 5000 arrivals / 1024 cadence
		t.Fatalf("/stats wal snapshots = %d, want >= 4", stats.WAL.Snapshots)
	}
	if stats.WAL.Truncations != 0 || stats.WAL.WriteErrors != 0 {
		t.Fatalf("/stats wal reports failures on a healthy run: %+v", stats.WAL)
	}

	// /metrics: every family present, every line grammatical.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"pimtree_wal_appended_records_total " + fmt.Sprint(stats.WAL.AppendedRecords),
		"pimtree_wal_appended_bytes_total",
		"pimtree_wal_fsyncs_total",
		"pimtree_wal_snapshots_total " + fmt.Sprint(stats.WAL.Snapshots),
		"pimtree_wal_snapshot_seconds_total",
		"pimtree_wal_replay_records_total 0",
		"pimtree_wal_replay_seconds_total",
		"pimtree_wal_truncations_total 0",
		"pimtree_wal_write_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promSampleRe.MatchString(line) && !promCommentRe.MatchString(line) {
			t.Errorf("/metrics line fails exposition grammar: %q", line)
		}
	}

	// Durability off: no wal families, no wal block.
	s2 := startServer(t, countCfg(pimtree.ModeSharded), Options{AdminAddr: "127.0.0.1:0", Slow: Block})
	base2 := "http://" + s2.AdminAddr().String()
	resp, err = http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "pimtree_wal_") {
		t.Error("/metrics exports pimtree_wal_* without durability configured")
	}
	resp, err = http.Get(base2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	resp.Body.Close()
	if _, ok := raw["wal"]; ok {
		t.Error("/stats exports a wal block without durability configured")
	}
}
