package shard

import (
	"math/rand"
	"testing"

	"pimtree/internal/join"
)

// TestSequencerMatchesOracle pins Sequencer.Next against the brute-force
// memberOracle: the op stream it implies is the oracle's, op for op, and a
// Member fed that stream reproduces the oracle's expected matches.
func TestSequencerMatchesOracle(t *testing.T) {
	const w, span, tuples = 48, uint64(150), 1500
	band := join.Band{Diff: 1 << 29}
	for _, tc := range []struct {
		name        string
		self, timed bool
	}{
		{"count/two-way", false, false},
		{"count/self", true, false},
		{"timed/two-way", false, true},
		{"timed/self", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			cfg := MemberConfig{Shards: 3, WR: w, WS: w - 7, Self: tc.self, Index: join.IndexBTree, BatchSize: 5}
			orc := newMemberOracle(band, cfg.WR, cfg.WS, tc.self, tc.timed, span)
			seq := NewSequencer(cfg.WR, cfg.WS, tc.self, band, 0)
			if tc.timed {
				cfg.Timed, cfg.MaxLive = true, 128
				seq = NewSequencer(cfg.MaxLive, cfg.MaxLive, tc.self, band, span)
			}
			var ops []Op
			ts := uint64(0)
			for i := 0; i < tuples; i++ {
				s, key := uint8(rng.Intn(2)), rng.Uint32()
				if tc.self {
					s = 0
				}
				if tc.timed {
					ts += uint64(rng.Intn(4))
				}
				orc.push(s, key, ts)
				own, probed, lo, hi, te, tl, n, wm := seq.Next(s, key, ts)
				ops = append(ops,
					Op{Stream: probed, Lo: lo, Hi: hi, TE: te, TL: tl, Idx: uint64(i)},
					Op{Insert: true, Stream: own, Key: key, Seq: n, TE: wm, TS: ts})
			}
			if len(ops) != len(orc.ops) {
				t.Fatalf("sequenced %d ops, oracle %d", len(ops), len(orc.ops))
			}
			for i := range ops {
				if ops[i] != orc.ops[i] {
					t.Fatalf("op %d: sequencer %+v, oracle %+v", i, ops[i], orc.ops[i])
				}
			}
			sink := newResultSink()
			m := NewMember(cfg, sink.onResult)
			applyAll(m, ops, rng)
			m.Close()
			sink.compare(t, orc.expected)
		})
	}
}
