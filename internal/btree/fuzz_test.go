package btree

import (
	"testing"

	"pimtree/internal/kv"
)

// FuzzOpSequence drives the tree with an arbitrary operation tape and checks
// it against a map reference plus the structural invariants. Each input byte
// pair encodes one operation: the low two bits of the first byte select
// insert/insert/delete/query and the remaining bits form the key/ref. A
// query checks QueryPairs' runs and that refusing the first run stops it. A
// query checks QueryPairs' runs and that refusing the first run stops it.
func FuzzOpSequence(f *testing.F) {
	f.Add([]byte{0x04, 0x10, 0x08, 0x10, 0x02, 0x10})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00, 0x80, 0x7F})
	f.Fuzz(func(t *testing.T, tape []byte) {
		tr := NewOrder(4) // smallest order stresses splits/merges hardest
		ref := map[kv.Pair]bool{}
		for i := 0; i+1 < len(tape); i += 2 {
			op := tape[i] & 3
			p := kv.Pair{Key: uint32(tape[i] >> 2), Ref: uint32(tape[i+1] & 0x0F)}
			switch op {
			case 0, 1:
				added := tr.Insert(p)
				if added == ref[p] {
					t.Fatalf("Insert(%v): added=%v, ref present=%v", p, added, ref[p])
				}
				ref[p] = true
			case 2:
				removed := tr.Delete(p)
				if removed != ref[p] {
					t.Fatalf("Delete(%v): removed=%v, ref present=%v", p, removed, ref[p])
				}
				delete(ref, p)
			case 3:
				lo := p.Key
				hi := lo + uint32(tape[i+1])
				want := 0
				for q := range ref {
					if q.Key >= lo && q.Key <= hi {
						want++
					}
				}
				got := query(t, tr, lo, hi)
				if len(got) != want || !kv.IsSorted(got) {
					t.Fatalf("QueryPairs(%d,%d) = %v, want %d sorted elements", lo, hi, got, want)
				}
				// Refusing the first run stops the walk, whichever leaf
				// the range ends in.
				if stopped := tr.QueryPairs(lo, hi, func([]kv.Pair) bool { return false }); stopped != (want > 0) {
					t.Fatalf("QueryPairs(%d,%d) refusing its first run: stopped = %v, want %v", lo, hi, stopped, want > 0)
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
