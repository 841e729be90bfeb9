package server

import (
	"reflect"
	"testing"

	"pimtree"
	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// TestJoinClusterRoundTrip pins the join-frame codec: every field survives,
// and malformed payloads are rejected rather than misread.
func TestJoinClusterRoundTrip(t *testing.T) {
	cases := []ClusterConfig{
		{Timed: true, Backend: pimtree.PIMTree, Shards: 4, MaxLive: 512, Span: 1 << 20, Batch: 64, Ring: 1 << 12},
		{Self: true, Backend: pimtree.BPlusTree, WR: 256, WS: 256},
		{Backend: pimtree.IMTree, WR: 1, WS: 7, Shards: 1},
		{Timed: true, Self: true, Backend: pimtree.BPlusTree, MaxLive: 1, Span: 1},
	}
	for i, cc := range cases {
		version, got, err := decodeJoinCluster(encodeJoinCluster(ProtocolVersion, cc))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if version != ProtocolVersion || !reflect.DeepEqual(got, cc) {
			t.Fatalf("case %d: round-trip %+v != %+v", i, got, cc)
		}
	}
	if _, _, err := decodeJoinCluster(make([]byte, joinClusterLen-1)); err == nil {
		t.Fatal("short join-cluster payload accepted")
	}
	bad := encodeJoinCluster(1, ClusterConfig{Backend: pimtree.PIMTree, WR: 1, WS: 1})
	bad[1] = 0x80 // unknown flag bit
	if _, _, err := decodeJoinCluster(bad); err == nil {
		t.Fatal("unknown join-cluster flags accepted")
	}
}

// TestClusterReadyRoundTrip pins the ready-frame codec including the id
// length prefix.
func TestClusterReadyRoundTrip(t *testing.T) {
	for _, id := range []string{"", "n1", "a-node-with-a-long-name:9040"} {
		version, got, err := decodeClusterReady(encodeClusterReady(ProtocolVersion, id))
		if err != nil {
			t.Fatalf("id %q: %v", id, err)
		}
		if version != ProtocolVersion || got != id {
			t.Fatalf("id round-trip %q != %q", got, id)
		}
	}
	if _, _, err := decodeClusterReady([]byte{1}); err == nil {
		t.Fatal("one-byte cluster-ready accepted")
	}
	if _, _, err := decodeClusterReady([]byte{1, 5, 'a'}); err == nil {
		t.Fatal("lying id length accepted")
	}
}

// TestOpsRoundTrip pins the op codec for both kinds and its rejection of
// invalid kind and stream bytes.
func TestOpsRoundTrip(t *testing.T) {
	ops := []shard.Op{
		{Insert: true, Stream: uint8(pimtree.R), Key: 7, Seq: 40, TE: 8, TS: 0},
		{Insert: true, Stream: uint8(pimtree.S), Key: ^uint32(0), Seq: ^uint64(0), TE: 1, TS: 99},
		{Stream: uint8(pimtree.S), Lo: 5, Hi: 9, TE: 2, TL: 41, Idx: 81},
		{Stream: uint8(pimtree.R), Lo: 0, Hi: ^uint32(0), TE: 0, TL: 0, Idx: 0},
	}
	var payload []byte
	for _, o := range ops {
		payload = appendOp(payload, o)
	}
	got, err := decodeOpsInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("ops round-trip:\n got %+v\nwant %+v", got, ops)
	}
	if _, err := decodeOpsInto(nil, payload[:recOp-1]); err == nil {
		t.Fatal("ragged ops payload accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 2
	if _, err := decodeOpsInto(nil, bad); err == nil {
		t.Fatal("invalid op kind accepted")
	}
	bad[0], bad[1] = 0, 9
	if _, err := decodeOpsInto(nil, bad); err == nil {
		t.Fatal("invalid op stream accepted")
	}
}

// TestResultsRoundTrip pins the self-delimiting results grouping: bucket
// concatenation on encode, per-group decode, and the hostile-count guard.
func TestResultsRoundTrip(t *testing.T) {
	payload := appendResult(nil, 81, [][]uint64{{1, 2}, nil, {3}})
	payload = appendResult(payload, 82, nil)
	payload = appendResult(payload, 83, [][]uint64{{9}})
	var idxs []uint64
	var groups [][]uint64
	if err := decodeResults(payload, func(idx uint64, seqs []uint64) error {
		idxs = append(idxs, idx)
		groups = append(groups, seqs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(idxs, []uint64{81, 82, 83}) {
		t.Fatalf("group idxs = %v", idxs)
	}
	if !reflect.DeepEqual(groups, [][]uint64{{1, 2, 3}, nil, {9}}) {
		t.Fatalf("group seqs = %v", groups)
	}
	if err := decodeResults(payload[:11], func(uint64, []uint64) error { return nil }); err == nil {
		t.Fatal("truncated group header accepted")
	}
	hostile := []byte{0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff}
	if err := decodeResults(hostile, func(uint64, []uint64) error { return nil }); err == nil {
		t.Fatal("hostile seq count accepted")
	}
}

// TestWindowStatusExportCountRoundTrip pins the remaining cluster codecs.
func TestWindowStatusExportCountRoundTrip(t *testing.T) {
	ws := []wal.Tuple{
		{Stream: uint8(pimtree.R), Key: 9, Seq: 4, TS: 17},
		{Stream: uint8(pimtree.S), Key: ^uint32(0), Seq: ^uint64(0), TS: 0},
	}
	var payload []byte
	for _, wt := range ws {
		payload = appendWindowTuple(payload, wt)
	}
	got, err := decodeWindowTuples(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ws) {
		t.Fatalf("window round-trip %+v != %+v", got, ws)
	}
	if _, err := decodeWindowTuples(nil, payload[:recWindow+1]); err == nil {
		t.Fatal("ragged window payload accepted")
	}

	st := NodeStatus{Applied: 7, EvictWM: 3, Resident: 11}
	if got, err := decodeNodeStatus(encodeNodeStatus(st)); err != nil || got != st {
		t.Fatalf("status round-trip %+v, %v", got, err)
	}
	if _, err := decodeNodeStatus(make([]byte, recStatus-1)); err == nil {
		t.Fatal("short status payload accepted")
	}

	lo, hi, err := decodeExport(encodeExport(100, 2000))
	if err != nil || lo != 100 || hi != 2000 {
		t.Fatalf("export round-trip (%d, %d), %v", lo, hi, err)
	}
	if _, _, err := decodeExport([]byte{1, 2, 3}); err == nil {
		t.Fatal("short export payload accepted")
	}

	if n, err := decodeCount(encodeCount(1 << 40)); err != nil || n != 1<<40 {
		t.Fatalf("count round-trip %d, %v", n, err)
	}
	if _, err := decodeCount(nil); err == nil {
		t.Fatal("empty count payload accepted")
	}
}
