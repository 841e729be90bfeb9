package server

import (
	"context"
	"reflect"
	"testing"
	"time"

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

// TestWindowStatusExportCountRoundTrip pins the remaining cluster codecs:
// window, node status, reassign and count.
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

	pos, nodes, n, err := decodeReassign(encodeReassign(3, 4, 1<<40))
	if err != nil || pos != 3 || nodes != 4 || n != 1<<40 {
		t.Fatalf("reassign round-trip (%d, %d, %d), %v", pos, nodes, n, err)
	}
	if _, _, _, err := decodeReassign([]byte{1, 2, 3}); err == nil {
		t.Fatal("short reassign payload accepted")
	}
	// The retired export frame had this type byte and an 8-byte [lo][hi]
	// payload: a router from an older build fails the handoff instead of
	// being misread.
	if _, _, _, err := decodeReassign(encodeCount(100<<32 | 2000)); err == nil {
		t.Fatal("8-byte (export-shaped) reassign payload accepted")
	}
	if _, _, _, err := decodeReassign(encodeReassign(0, 0, 0)); err == nil {
		t.Fatal("reassign over a map of 0 nodes accepted")
	}

	if n, err := decodeCount(encodeCount(1 << 40)); err != nil || n != 1<<40 {
		t.Fatalf("count round-trip %d, %v", n, err)
	}
	if _, err := decodeCount(nil); err == nil {
		t.Fatal("empty count payload accepted")
	}
}

// TestMemberSessionRejectsBadHandoff pins the node side of the reassign
// exchange on a real member session: a reassign whose import count differs
// from the window tuples sent before it, and the frame types retired with the
// export/import exchange (0x19 import-done, 0x1a imported), each end the
// session with an error frame naming the fault, so a router and a node from
// different builds fail the handoff instead of misreading it.
func TestMemberSessionRejectsBadHandoff(t *testing.T) {
	srv := startServer(t, countCfg(pimtree.ModeSharded), Options{})
	window := appendWindowTuple(appendWindowTuple(nil,
		wal.Tuple{Stream: uint8(pimtree.R), Key: 9, Seq: 0}),
		wal.Tuple{Stream: uint8(pimtree.S), Key: 7, Seq: 0})
	type frame struct {
		typ     byte
		payload []byte
	}
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"count-mismatch", []frame{{FrameWindow, window}, {FrameReassign, encodeReassign(0, 1, 3)}},
			"reassign import count 3 does not match 2 received window tuples"},
		{"export-shaped", []frame{{FrameReassign, encodeCount(7)}}, "reassign payload must be 16 bytes, got 8"},
		{"import-done", []frame{{0x19, encodeCount(0)}}, "unexpected 0x19 frame on a member session"},
		{"imported", []frame{{0x1a, encodeCount(0)}}, "unexpected 0x1a frame on a member session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mc, err := DialMember(context.Background(), srv.Addr().String(), ClusterConfig{
				Backend: pimtree.BPlusTree, Shards: 2, WR: 8, WS: 8,
			}, MemberDialOptions{Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			for _, f := range tc.frames {
				if err := mc.send(f.typ, f.payload); err != nil {
					t.Fatal(err)
				}
			}
			for {
				ev, err := mc.ReadNodeEvent()
				if err != nil {
					t.Fatalf("session ended without an error frame: %v", err)
				}
				if ev.Type == FrameError {
					if ev.Err != tc.want {
						t.Fatalf("error frame %q, want %q", ev.Err, tc.want)
					}
					return
				}
				if ev.Type == FrameReassigned {
					t.Fatalf("node completed the reassign (count %d)", ev.Count)
				}
			}
		})
	}
}
