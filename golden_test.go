package pimtree

import "testing"

// TestGoldenEndToEnd pins the complete pipeline — generator, band
// calibration, serial join, sharded join — to exact expected outputs on a
// fixed seed, guarding against silent semantic drift in any layer. If a
// deliberate change alters these numbers, re-derive them with the NLWJ
// oracle before updating.
func TestGoldenEndToEnd(t *testing.T) {
	const (
		n    = 10000
		w    = 256
		seed = 12345
	)
	arr := Interleave(seed, UniformSource(seed+1), UniformSource(seed+2), 0.5, n)

	// The workload itself is pinned.
	if arr[0].Key != 1741871113 || arr[0].Stream != R {
		t.Fatalf("generator drifted: first arrival %+v", arr[0])
	}
	var checksum uint64
	for _, a := range arr {
		checksum = checksum*31 + uint64(a.Key) + uint64(a.Stream)
	}
	const wantChecksum = uint64(14713924932380141590)
	if checksum != wantChecksum {
		t.Fatalf("workload checksum %d, want %d", checksum, wantChecksum)
	}

	diff := DiffForMatchRate(w, 2)
	if diff != 8388607 {
		t.Fatalf("DiffForMatchRate = %d, want 8388607", diff)
	}

	// Serial joins across backends agree on the golden match count
	// (derived from the nested-loop oracle on this fixed workload).
	const wantMatches = uint64(19356)
	for _, b := range []Backend{PIMTree, IMTree, BPlusTree} {
		st := runSession(t, arr, Config{Mode: ModeSerial, WindowR: w, WindowS: w, Diff: diff, Backend: b, DiscardMatches: true})
		if st.Matches != wantMatches {
			t.Fatalf("%v: matches = %d, want %d", b, st.Matches, wantMatches)
		}
	}

	// The sharded runtime reproduces the same count at several shard
	// counts.
	for _, shards := range []int{1, 2, 4} {
		st := runSession(t, arr, Config{Mode: ModeSharded, Shards: shards, WindowR: w, WindowS: w, Diff: diff, DiscardMatches: true})
		if st.Matches != wantMatches {
			t.Fatalf("sharded shards=%d: matches = %d, want %d", shards, st.Matches, wantMatches)
		}
	}
}
