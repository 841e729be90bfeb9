package join

import (
	"testing"

	"pimtree/internal/stream"
)

func TestBandRange(t *testing.T) {
	b := Band{Diff: 10}
	lo, hi := b.Range(100)
	if lo != 90 || hi != 110 {
		t.Fatalf("Range(100) = [%d,%d], want [90,110]", lo, hi)
	}
	lo, hi = b.Range(5)
	if lo != 0 || hi != 15 {
		t.Fatalf("Range(5) = [%d,%d], want [0,15] (underflow clamp)", lo, hi)
	}
	lo, hi = b.Range(^uint32(0) - 3)
	if hi != ^uint32(0) {
		t.Fatalf("Range near max = [%d,%d], want hi clamped", lo, hi)
	}
}

func TestBandMatches(t *testing.T) {
	b := Band{Diff: 5}
	cases := []struct {
		a, c uint32
		want bool
	}{
		{10, 15, true}, {10, 16, false}, {15, 10, true},
		{0, 5, true}, {0, 6, false}, {7, 7, true},
	}
	for _, tc := range cases {
		if got := b.Matches(tc.a, tc.c); got != tc.want {
			t.Fatalf("Matches(%d,%d) = %v, want %v", tc.a, tc.c, got, tc.want)
		}
	}
	if !(Band{Diff: 0}).Matches(9, 9) {
		t.Fatal("zero-diff equality match failed")
	}
}

func TestIndexKindString(t *testing.T) {
	names := map[IndexKind]string{
		IndexBTree: "B+-Tree", IndexIMTree: "IM-Tree", IndexPIMTree: "PIM-Tree",
		IndexKind(3): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestOpposite(t *testing.T) {
	if opposite(stream.StreamR) != stream.StreamS || opposite(stream.StreamS) != stream.StreamR {
		t.Fatal("opposite() wrong")
	}
}

func TestStatsMtps(t *testing.T) {
	s := Stats{Tuples: 1_000_000, Elapsed: 1e9} // 1M tuples in 1s
	if m := s.Mtps(); m < 0.99 || m > 1.01 {
		t.Fatalf("Mtps = %f, want ~1", m)
	}
}
