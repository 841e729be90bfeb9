package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pimtree"
	"pimtree/internal/shard"
	"pimtree/internal/wal"
)

// FuzzParseFrame feeds arbitrary byte streams through the frame reader and
// every payload decoder — the exact path a byte off the network takes —
// checking the decoders never panic, never accept more than the frame
// bound, and that whatever they do accept re-encodes to the identical
// bytes (the decoders and encoders are exact inverses on valid payloads).
//
// CI runs this for a short budget on every push (see the fuzz step of the
// test job); `go test -fuzz=FuzzParseFrame ./internal/server` explores
// further.
func FuzzParseFrame(f *testing.F) {
	// Seeds: the malformed-frame conformance table's byte sequences, plus
	// well-formed frames of every type.
	f.Add(rawFrame(FrameIngest, []byte{0, 0, 0, 0, 1}))     // ingest before hello
	f.Add(rawFrame(FrameHello, []byte{1}))                  // short hello payload
	f.Add(helloBytes(99, 0))                                // bad version
	f.Add(helloBytes(1, 0x80))                              // unknown flags
	f.Add(helloBytes(1, FlagTimed))                         // timed flag (count engine)
	f.Add(append(helloBytes(1, 0), rawFrame(0x7f, nil)...)) // unknown frame type
	f.Add(append(helloBytes(1, 0), rawFrame(FrameMatch, make([]byte, recMatch))...))
	f.Add(append(helloBytes(1, 0), rawFrame(FrameIngest, make([]byte, recCount+1))...)) // ragged
	f.Add(append(helloBytes(1, 0), rawFrame(FrameIngest, []byte{9, 0, 0, 0, 1})...))    // bad stream
	f.Add(append(helloBytes(1, 0), rawFrame(FrameIngest, make([]byte, 2048))...))       // oversized
	f.Add(helloBytes(ProtocolVersion, FlagSubscribe|FlagTimed))
	f.Add(rawFrame(FrameIngest, encodeArrivals([]pimtree.Arrival{
		{Stream: pimtree.R, Key: 7}, {Stream: pimtree.S, Key: 9},
	}, false)))
	f.Add(rawFrame(FrameIngest, encodeArrivals([]pimtree.Arrival{
		{Stream: pimtree.R, Key: 7, TS: 42}, {Stream: pimtree.S, Key: 9, TS: 43},
	}, true)))
	f.Add(rawFrame(FrameMatch, appendMatch(nil, pimtree.Match{ProbeStream: pimtree.S, ProbeSeq: 3, MatchSeq: 8})))
	f.Add(rawFrame(FrameDrain, nil))
	f.Add(rawFrame(FrameDrained, nil))
	f.Add(rawFrame(FrameError, []byte("boom")))
	f.Add([]byte{})
	f.Add([]byte{0, 0})                         // truncated header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x02}) // hostile length prefix

	// Cluster-tier frames (0x10–0x18): a well-formed seed per type, plus
	// truncated/ragged variants of the structured payloads.
	f.Add(rawFrame(FrameJoinCluster, encodeJoinCluster(ProtocolVersion, ClusterConfig{
		Timed: true, Backend: pimtree.PIMTree, Shards: 4, MaxLive: 512, Span: 1024, Batch: 64, Ring: 1 << 12,
	})))
	f.Add(rawFrame(FrameJoinCluster, encodeJoinCluster(ProtocolVersion, ClusterConfig{
		Self: true, Backend: pimtree.BPlusTree, WR: 256, WS: 256,
	})))
	f.Add(rawFrame(FrameJoinCluster, []byte{1, 0xff, 0}))               // unknown flags, short
	f.Add(rawFrame(FrameClusterReady, encodeClusterReady(1, "node-a"))) // well-formed ready
	f.Add(rawFrame(FrameClusterReady, []byte{1, 200, 'x'}))             // id length lies
	f.Add(rawFrame(FrameOps, appendOp(appendOp(nil,
		shard.Op{Insert: true, Stream: uint8(pimtree.R), Key: 7, Seq: 40, TE: 8, TS: 99}),
		shard.Op{Stream: uint8(pimtree.S), Lo: 5, Hi: 9, TE: 2, TL: 41, Idx: 81})))
	f.Add(rawFrame(FrameOps, []byte{2}))        // invalid kind, ragged
	f.Add(rawFrame(FrameOps, make([]byte, 35))) // ragged record boundary
	f.Add(rawFrame(FrameResults, appendResult(appendResult(nil, 81, [][]uint64{{1, 2}, nil, {3}}), 82, nil)))
	f.Add(rawFrame(FrameResults, []byte{0, 0, 0, 0, 0, 0, 0, 9, 0xff, 0xff, 0xff, 0xff})) // hostile seq count
	f.Add(rawFrame(FrameNodeStatus, encodeNodeStatus(NodeStatus{Applied: 7, EvictWM: 3, Resident: 11})))
	f.Add(rawFrame(FramePing, nil))
	f.Add(rawFrame(FrameReassign, encodeReassign(1, 3, 2)))
	f.Add(rawFrame(FrameWindow, appendWindowTuple(appendWindowTuple(nil,
		wal.Tuple{Stream: uint8(pimtree.R), Key: 9, Seq: 4, TS: 17}),
		wal.Tuple{Stream: uint8(pimtree.S), Key: 2, Seq: 6, TS: 18})))
	f.Add(rawFrame(FrameWindow, []byte{9})) // invalid stream, ragged
	f.Add(rawFrame(FrameReassigned, encodeCount(2)))
	f.Add(rawFrame(FrameReassign, encodeCount(2)))          // the retired export shape
	f.Add(rawFrame(FrameReassign, encodeReassign(0, 0, 0))) // a map of no nodes

	const maxFrame = 4096
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readFrame(r, maxFrame)
			if err != nil {
				if errors.Is(err, io.EOF) && r.Len() != 0 {
					t.Fatalf("clean EOF with %d bytes unread", r.Len())
				}
				return // protocol error or truncation ends the stream
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame returned %d-byte payload above the %d bound", len(payload), maxFrame)
			}
			switch typ {
			case FrameHello:
				if version, flags, err := decodeHello(payload); err == nil {
					if got := encodeHello(version, flags); !bytes.Equal(got, payload) {
						t.Fatalf("hello round-trip: %x != %x", got, payload)
					}
				}
			case FrameIngest:
				for _, timed := range []bool{false, true} {
					arrivals, err := decodeArrivals(payload, timed)
					if err != nil {
						continue
					}
					w := recCount
					if timed {
						w = recTimed
					}
					if len(arrivals) != len(payload)/w {
						t.Fatalf("timed=%v: decoded %d arrivals from %d bytes", timed, len(arrivals), len(payload))
					}
					for i, a := range arrivals {
						if a.Stream != pimtree.R && a.Stream != pimtree.S {
							t.Fatalf("arrival %d: invalid stream %d accepted", i, a.Stream)
						}
					}
					if got := encodeArrivals(arrivals, timed); !bytes.Equal(got, payload) {
						t.Fatalf("timed=%v ingest round-trip: %x != %x", timed, got, payload)
					}
				}
			case FrameMatch:
				matches, err := decodeMatches(payload)
				if err != nil {
					continue
				}
				got := make([]byte, 0, len(payload))
				for _, m := range matches {
					got = appendMatch(got, m)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("match round-trip: %x != %x", got, payload)
				}
			case FrameJoinCluster:
				if version, cc, err := decodeJoinCluster(payload); err == nil {
					if got := encodeJoinCluster(version, cc); !bytes.Equal(got, payload) {
						t.Fatalf("join-cluster round-trip: %x != %x", got, payload)
					}
				}
			case FrameClusterReady:
				if version, id, err := decodeClusterReady(payload); err == nil {
					if got := encodeClusterReady(version, id); !bytes.Equal(got, payload) {
						t.Fatalf("cluster-ready round-trip: %x != %x", got, payload)
					}
				}
			case FrameOps:
				if ops, err := decodeOpsInto(nil, payload); err == nil {
					got := make([]byte, 0, len(payload))
					for _, o := range ops {
						got = appendOp(got, o)
					}
					if !bytes.Equal(got, payload) {
						t.Fatalf("ops round-trip: %x != %x", got, payload)
					}
				}
			case FrameResults:
				got := make([]byte, 0, len(payload))
				if err := decodeResults(payload, func(idx uint64, seqs []uint64) error {
					got = appendResult(got, idx, [][]uint64{seqs})
					return nil
				}); err == nil && !bytes.Equal(got, payload) {
					t.Fatalf("results round-trip: %x != %x", got, payload)
				}
			case FrameWindow:
				if ws, err := decodeWindowTuples(nil, payload); err == nil {
					got := make([]byte, 0, len(payload))
					for _, wt := range ws {
						got = appendWindowTuple(got, wt)
					}
					if !bytes.Equal(got, payload) {
						t.Fatalf("window round-trip: %x != %x", got, payload)
					}
				}
			case FrameNodeStatus:
				if st, err := decodeNodeStatus(payload); err == nil {
					if got := encodeNodeStatus(st); !bytes.Equal(got, payload) {
						t.Fatalf("node-status round-trip: %x != %x", got, payload)
					}
				}
			case FrameReassign:
				if pos, nodes, n, err := decodeReassign(payload); err == nil {
					if got := encodeReassign(pos, nodes, n); !bytes.Equal(got, payload) {
						t.Fatalf("reassign round-trip: %x != %x", got, payload)
					}
				}
			case FrameReassigned:
				if n, err := decodeCount(payload); err == nil {
					if got := encodeCount(n); !bytes.Equal(got, payload) {
						t.Fatalf("count round-trip: %x != %x", got, payload)
					}
				}
			}
		}
	})
}
