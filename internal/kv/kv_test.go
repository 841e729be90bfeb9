package kv

import (
	"math/rand"
	"testing"
)

func TestLessAndCompare(t *testing.T) {
	cases := []struct {
		a, b Pair
		cmp  int
	}{
		{Pair{1, 1}, Pair{1, 1}, 0},
		{Pair{1, 1}, Pair{1, 2}, -1},
		{Pair{1, 2}, Pair{1, 1}, 1},
		{Pair{1, 9}, Pair{2, 0}, -1},
		{Pair{3, 0}, Pair{2, 9}, 1},
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.cmp {
			t.Fatalf("Compare(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.cmp)
		}
		if got := tc.a.Less(tc.b); got != (tc.cmp < 0) {
			t.Fatalf("Less(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestSortAndIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := make([]Pair, 500)
	for i := range ps {
		ps[i] = Pair{Key: rng.Uint32() % 50, Ref: rng.Uint32() % 50}
	}
	if IsSorted(ps) {
		t.Skip("random input accidentally sorted")
	}
	Sort(ps)
	if !IsSorted(ps) {
		t.Fatal("Sort did not sort")
	}
}

func TestBounds(t *testing.T) {
	ps := []Pair{{1, 0}, {1, 1}, {3, 0}, {3, 1}, {3, 2}, {7, 0}}
	if got := LowerBound(ps, 3); got != 2 {
		t.Fatalf("LowerBound(3) = %d", got)
	}
	if got := UpperBound(ps, 3); got != 5 {
		t.Fatalf("UpperBound(3) = %d", got)
	}
	if got := LowerBound(ps, 0); got != 0 {
		t.Fatalf("LowerBound(0) = %d", got)
	}
	if got := LowerBound(ps, 8); got != 6 {
		t.Fatalf("LowerBound(8) = %d", got)
	}
	if got := UpperBound(nil, 5); got != 0 {
		t.Fatalf("UpperBound(nil) = %d", got)
	}
}

func TestMergeFilteredDropsOnly(t *testing.T) {
	a := []Pair{{1, 0}, {2, 0}, {3, 0}}
	b := []Pair{{2, 1}, {4, 0}}
	live := func(p Pair) bool { return p.Key != 2 }
	m := MergeFiltered(a, b, live, len(a)+len(b))
	if len(m) != 3 {
		t.Fatalf("MergeFiltered kept %d, want 3", len(m))
	}
	for _, p := range m {
		if p.Key == 2 {
			t.Fatal("filtered element survived")
		}
	}
	if !IsSorted(m) {
		t.Fatal("filtered merge unsorted")
	}
}

func TestMergeFilteredTails(t *testing.T) {
	// Exercise both tail paths.
	a := []Pair{{1, 0}, {2, 0}, {9, 0}, {10, 0}}
	b := []Pair{{5, 0}}
	m := MergeFiltered(a, b, func(p Pair) bool { return p.Key%2 == 1 }, 0)
	want := []Pair{{1, 0}, {5, 0}, {9, 0}}
	if len(m) != len(want) {
		t.Fatalf("got %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("got %v, want %v", m, want)
		}
	}
	m2 := MergeFiltered(b, a, func(p Pair) bool { return p.Key%2 == 1 }, len(a)+len(b))
	if len(m2) != len(want) {
		t.Fatalf("swapped args: got %v", m2)
	}
}

// TestMergeFilteredUnsortedPanics: the merge checks the order of both inputs
// in its own pass — in the interleaved part and in either tail, and also where
// the filter drops the elements out of order — so that a merged run handed to
// cstree.Build needs no second read.
func TestMergeFilteredUnsortedPanics(t *testing.T) {
	all := func(Pair) bool { return true }
	cases := []struct {
		name string
		a, b []Pair
		live func(Pair) bool
	}{
		{"a, interleaved", []Pair{{2, 0}, {1, 0}, {9, 0}}, []Pair{{3, 0}}, all},
		{"b, interleaved", []Pair{{5, 0}}, []Pair{{1, 0}, {3, 0}, {2, 0}, {6, 0}}, all},
		{"a's tail", []Pair{{1, 0}, {7, 0}, {6, 0}}, []Pair{{2, 0}}, all},
		{"b's tail", []Pair{{1, 0}}, []Pair{{3, 0}, {3, 2}, {3, 1}}, all},
		{"b alone", nil, []Pair{{2, 0}, {1, 0}}, all},
		{"dropped by the filter", []Pair{{4, 0}, {3, 0}}, nil, func(Pair) bool { return false }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if r := recover(); r != unsorted {
					t.Fatalf("%s: recovered %v, want %q", c.name, r, unsorted)
				}
			}()
			MergeFiltered(c.a, c.b, c.live, len(c.a)+len(c.b))
		}()
	}
}

func TestPairBytes(t *testing.T) {
	if PairBytes != 8 {
		t.Fatalf("PairBytes = %d, the paper's element is 8 bytes", PairBytes)
	}
}
