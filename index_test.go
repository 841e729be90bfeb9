package pimtree

import (
	"math"
	"strings"
	"testing"
)

// The MergeRatio contract of Config.Index: zero selects the default,
// anything else must lie in (0, 1], and the error spells the
// zero-means-default rule out.
func TestNewIndexMergeRatioValidation(t *testing.T) {
	cases := []struct {
		name  string
		ratio float64
		ok    bool
	}{
		{"zero selects default", 0, true},
		{"smallest positive", math.SmallestNonzeroFloat64, true},
		{"paper serial default", 1.0 / 16, true},
		{"half", 0.5, true},
		{"upper bound inclusive", 1, true},
		{"negative", -0.001, false},
		{"negative one", -1, false},
		{"just above one", math.Nextafter(1, 2), false},
		{"two", 2, false},
		{"NaN", math.NaN(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Mode: ModeSerial, WindowR: 64, Self: true, Backend: PIMTree, Index: IndexOptions{MergeRatio: c.ratio}}
			if c.ok {
				// The index must actually work with the accepted ratio.
				e := openSerial(t, cfg)
				push(t, e, R, 1)
				if n := push(t, e, R, 1); n != 1 {
					t.Fatalf("accepted index matched %d, want 1", n)
				}
				return
			}
			_, err := Open(cfg)
			if err == nil {
				t.Fatalf("ratio %v accepted", c.ratio)
			}
			if !strings.Contains(err.Error(), "zero selects the default") {
				t.Fatalf("error does not state the zero-means-default rule: %v", err)
			}
		})
	}
}

func TestNewIndexOtherValidation(t *testing.T) {
	if _, err := Open(Config{Mode: ModeSerial, WindowR: 0, Self: true}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := Open(Config{Mode: ModeSerial, WindowR: 16, Self: true, Index: IndexOptions{InsertionDepth: -1}}); err == nil {
		t.Fatal("negative insertion depth accepted")
	}
}
