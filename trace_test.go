package pimtree

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadArrivalsCSV(t *testing.T) {
	in := strings.NewReader("# comment\nR,10\n\nS,20\n0,30\n1,40\n r , 50 \n")
	got, err := ReadArrivalsCSV(in)
	if err != nil {
		t.Fatal(err)
	}
	want := []Arrival{
		{Stream: R, Key: 10}, {Stream: S, Key: 20}, {Stream: R, Key: 30},
		{Stream: S, Key: 40}, {Stream: R, Key: 50},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d arrivals, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadArrivalsCSVErrors(t *testing.T) {
	for _, in := range []string{"R\n", "X,5\n", "R,notakey\n", "R,99999999999\n"} {
		if _, err := ReadArrivalsCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

// A trace round-trips through the CSV form: a count trace as `stream,key`
// lines, a timed one with its timestamps as a third field.
func TestCSVRoundTrip(t *testing.T) {
	count := Interleave(5, UniformSource(1), UniformSource(2), 0.5, 500)
	timed := make([]Arrival, len(count))
	for i, a := range TimestampArrivals(6, count, 4) {
		timed[i] = Arrival{Stream: a.Stream, Key: a.Key, TS: a.TS}
	}
	for _, c := range []struct {
		name   string
		orig   []Arrival
		fields int
	}{{"count", count, 2}, {"timed", timed, 3}} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteArrivalsCSV(&buf, c.orig); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(buf.String(), ","); n != (c.fields-1)*len(c.orig) {
				t.Fatalf("%d commas over %d lines, want %d fields a line", n, len(c.orig), c.fields)
			}
			back, err := ReadArrivalsCSV(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(c.orig) {
				t.Fatalf("round trip length %d vs %d", len(back), len(c.orig))
			}
			for i := range c.orig {
				if back[i] != c.orig[i] {
					t.Fatalf("arrival %d changed: %+v vs %+v", i, back[i], c.orig[i])
				}
			}
		})
	}
}

func TestCSVTraceDrivesJoin(t *testing.T) {
	arr := Interleave(7, UniformSource(3), UniformSource(4), 0.5, 2000)
	var buf bytes.Buffer
	if err := WriteArrivalsCSV(&buf, arr); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadArrivalsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	diff := DiffForMatchRate(128, 2)
	run := func(in []Arrival) uint64 {
		return runSession(t, in, Config{Mode: ModeSerial, WindowR: 128, WindowS: 128, Diff: diff, Backend: PIMTree, DiscardMatches: true}).Matches
	}
	if run(arr) != run(replay) {
		t.Fatal("replayed trace produced different results")
	}
}
