package pimtree

import (
	"context"
	"testing"

	"pimtree/internal/wal"
)

// TestSnapshotCadence pins the default snapshot cadence: one live-window
// capacity of arrivals, floored at 2^16, with explicit values kept and
// negative ones disabling snapshots.
func TestSnapshotCadence(t *testing.T) {
	const w = 1 << 17
	for _, c := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"count", Config{Mode: ModeSharded, WindowR: w, WindowS: w / 2}, w + w/2},
		{"self", Config{Mode: ModeSharded, WindowR: w, Self: true}, w},
		{"timed", Config{Mode: ModeShardedTime, MaxLive: w}, 2 * w},
		{"timed-self", Config{Mode: ModeShardedTime, MaxLive: w, Self: true}, w},
		{"small window floored", Config{Mode: ModeSharded, WindowR: 4096, WindowS: 4096}, 1 << 16},
		{"explicit", Config{Mode: ModeSharded, WindowR: w, WindowS: w, Durability: Durability{SnapshotEvery: 1000}}, 1000},
		{"negative disables", Config{Mode: ModeSharded, WindowR: w, WindowS: w, Durability: Durability{SnapshotEvery: -1}}, 0},
	} {
		if got := snapshotCadence(c.cfg); got != c.want {
			t.Errorf("%s: cadence %d, want %d", c.name, got, c.want)
		}
	}
}

// TestDefaultSnapshotCadenceRecovers runs the default cadence at W = 2^16 per
// stream: 5·2^16 arrivals take two snapshots (one per 2^17), a crash that
// loses every unsynced byte replays at most the window of log written since
// the newer one, and the recovered engine then matches a serial engine fed
// the recovered prefix, tuple for tuple, on a fresh tail.
func TestDefaultSnapshotCadenceRecovers(t *testing.T) {
	const w, n, m = 1 << 16, 5 << 16, 4096
	ctx := context.Background()
	diff := DiffForMatchRate(w, 2)
	arr := Interleave(61, UniformSource(62), UniformSource(63), 0.5, n+m)
	prefix, tail := arr[:n], arr[n:]
	cfg := Config{
		Mode: ModeSharded, WindowR: w, WindowS: w, Diff: diff, Shards: 2,
		Durability: Durability{Dir: crashDir},
	}

	fs := wal.NewMemFS()
	run := cfg
	run.DiscardMatches = true
	eng, err := openWithWALFS(run, fs)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 512 {
		if err := eng.PushBatch(prefix[lo:min(lo+512, n)]); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.WALStats().Snapshots; got != 2 {
		t.Fatalf("%d arrivals took %d snapshots at the default cadence, want 2", n, got)
	}
	crashed := fs.Crash(true)
	if _, err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}

	_, st, err := wal.Open(walOptions(cfg, crashed.Crash(true)))
	if err != nil {
		t.Fatal(err)
	}
	recRec := &matchRecorder{}
	rcfg := cfg
	rcfg.OnMatch = recRec.add
	recEng, err := openWithWALFS(rcfg, crashed)
	if err != nil {
		t.Fatal(err)
	}
	if got := recEng.WALStats().ReplayRecords; got == 0 || got > 1<<17+64 {
		t.Fatalf("recovery replayed %d records, want 1..%d", got, 1<<17+64)
	}

	oraRec := &matchRecorder{}
	oracle, err := Open(Config{Mode: ModeSerial, WindowR: w, WindowS: w, Diff: diff, OnMatch: oraRec.add})
	if err != nil {
		t.Fatal(err)
	}
	var seen [2]uint64
	var eligible []Arrival
	for _, a := range prefix {
		if seen[a.Stream] < st.Heads[a.Stream] {
			eligible = append(eligible, a)
		}
		seen[a.Stream]++
	}
	if len(eligible) < n-2*w {
		t.Fatalf("recovered heads %v cover only %d of %d arrivals", st.Heads, len(eligible), n)
	}
	if err := oracle.PushBatch(eligible); err != nil {
		t.Fatal(err)
	}
	base := oraRec.count()
	for _, e := range []*Engine{recEng, oracle} {
		if err := e.PushBatch(tail); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got, want := recRec.from(0), oraRec.from(base)
	if len(want) == 0 || !matchesEqual(got, want) {
		t.Fatalf("recovered engine emitted %d tail matches, the serial oracle %d", len(got), len(want))
	}
	for _, e := range []*Engine{recEng, oracle} {
		if _, err := e.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
