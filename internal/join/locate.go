package join

import (
	"pimtree/internal/core"
	"pimtree/internal/kv"
)

// LocateChunk is how many arrivals (serial) or ops (shard) a single-writer
// engine locates before applying them. It bounds a Locator's buffers and
// how far ahead of its use a position is found.
const LocateChunk = 128

// locatable is the located path of an index whose probe and insert descents
// can run ahead of the operations that use them: the PIM-Tree's, whose TS
// changes only at a merge (see core.PIMTree.Locate).
type locatable interface {
	Locate(keys []uint32, pos, ords []int) core.TSToken
	Current(tok core.TSToken) bool
	InsertAt(p kv.Pair, ord int)
	QueryPairsAt(lo, hi uint32, pos, ord int, emit func([]kv.Pair) bool) (stopped bool)
}

// Locator runs the TS descents of a chunk of a single-writer engine's batch
// ahead of the chunk, so that they walk each index's directory together
// instead of one after another. The engine adds the chunk's probe and insert
// keys per stream slot, each kind in the order it will apply them, calls
// Locate, then takes one Located per operation with Probe or Insert, in the
// same orders, and ends the chunk with Reset. Like the engine's indexes, one
// slot serves both streams of a self-join. For an index kind without a
// located path the Locator holds nothing: adding is a no-op and every
// Located is the zero one.
type Locator struct {
	slots [2]*slotLocator
}

// slotLocator is one index's share of a located chunk.
type slotLocator struct {
	probes, inserts []uint32
	keys            []uint32 // probes then inserts, as located
	pos, ords       []int
	tok             core.TSToken
	np, ni          int // probes and inserts taken
}

// NewLocator returns the Locator for an engine over indexes of idx's kind.
func NewLocator(idx Index, self bool) Locator {
	var l Locator
	if _, ok := idx.(locatable); !ok {
		return l
	}
	for s := range l.slots {
		if s == 1 && self {
			l.slots[1] = l.slots[0]
			break
		}
		l.slots[s] = &slotLocator{
			probes: make([]uint32, 0, LocateChunk), inserts: make([]uint32, 0, LocateChunk),
			keys: make([]uint32, 0, 2*LocateChunk), pos: make([]int, LocateChunk), ords: make([]int, 2*LocateChunk),
		}
	}
	return l
}

// AddProbe appends the lo bound of the chunk's next probe of slot's index.
func (l *Locator) AddProbe(slot uint8, lo uint32) {
	if sl := l.slots[slot]; sl != nil {
		sl.probes = append(sl.probes, lo)
	}
}

// AddInsert appends the key of the chunk's next insert into slot's index.
func (l *Locator) AddInsert(slot uint8, key uint32) {
	if sl := l.slots[slot]; sl != nil {
		sl.inserts = append(sl.inserts, key)
	}
}

// Locate descends each slot's index for every key added for it at once; an
// insert's descent stops at its subindex.
func (l *Locator) Locate(idxs *[2]Index) {
	for s, sl := range l.slots {
		if sl == nil || s == 1 && sl == l.slots[0] || len(sl.probes)+len(sl.inserts) == 0 {
			continue
		}
		sl.keys = append(append(sl.keys[:0], sl.probes...), sl.inserts...)
		sl.tok = idxs[s].(locatable).Locate(sl.keys, sl.pos[:len(sl.probes)], sl.ords)
	}
}

// Probe returns the located descent of the chunk's next probe of slot's
// index.
func (l *Locator) Probe(slot uint8) Located {
	sl := l.slots[slot]
	if sl == nil || sl.tok == (core.TSToken{}) {
		return Located{}
	}
	j := sl.np
	sl.np++
	return Located{sl.tok, sl.pos[j], sl.ords[j]}
}

// Insert returns the located descent of the chunk's next insert into slot's
// index.
func (l *Locator) Insert(slot uint8) Located {
	sl := l.slots[slot]
	if sl == nil || sl.tok == (core.TSToken{}) {
		return Located{}
	}
	j := len(sl.probes) + sl.ni
	sl.ni++
	return Located{sl.tok, 0, sl.ords[j]}
}

// Reset ends the chunk.
func (l *Locator) Reset() {
	for _, sl := range l.slots {
		if sl != nil {
			sl.probes, sl.inserts, sl.tok, sl.np, sl.ni = sl.probes[:0], sl.inserts[:0], core.TSToken{}, 0, 0
		}
	}
}

// Located is one key's TS descent, found by a Locator. It is used only while
// the index it is applied to still stands on the TS it was found in: a merge
// since, or an index rebuilt in the slot, sends the operation down the
// index's own descent, as does the zero Located.
type Located struct {
	tok      core.TSToken
	pos, ord int
}

// on returns idx's located path when at still holds for it.
func (at Located) on(idx Index) (locatable, bool) {
	if at.tok == (core.TSToken{}) {
		return nil, false
	}
	x, ok := idx.(locatable)
	return x, ok && x.Current(at.tok)
}

// Insert is idx.Insert(p), for p.Key's located descent.
func (at Located) Insert(idx Index, p kv.Pair) {
	if x, ok := at.on(idx); ok {
		x.InsertAt(p, at.ord)
		return
	}
	idx.Insert(p)
}

// QueryPairs is idx.QueryPairs(lo, hi, emit), for lo's located descent.
func (at Located) QueryPairs(idx Index, lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	if x, ok := at.on(idx); ok {
		return x.QueryPairsAt(lo, hi, at.pos, at.ord, emit)
	}
	return idx.QueryPairs(lo, hi, emit)
}
