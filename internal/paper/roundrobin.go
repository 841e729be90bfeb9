package paper

import (
	"fmt"
	"sync"
	"time"

	"pimtree/internal/btree"
	"pimtree/internal/join"
	"pimtree/internal/kv"
	"pimtree/internal/stream"
)

// RRConfig configures the round-robin partitioned parallel joins of
// Section 2.2.3 (the low-latency handshake join family: handshake join,
// SplitJoin, BiStream). The sliding window is split across P join-cores by
// arrival order; every core searches its local partition for every tuple
// (context-insensitive partitioning), while exactly one core — assigned
// round-robin — stores and indexes it.
type RRConfig struct {
	Cores   int       // P join-cores (default 1)
	WR, WS  int       // window lengths
	Band    join.Band // band predicate
	Indexed bool      // true: IBWJ with per-core B+-Trees; false: NLWJ scans
	Batch   int       // tuples per propagation round (fast-forwarding batch)
}

// rrCore is one join-core: a private partition of each stream's window plus
// (for IBWJ) private B+-Tree indexes. No concurrency control is needed —
// the defining property of context-insensitive partitioning.
type rrCore struct {
	keys [2][]uint32
	seqs [2][]uint64
	head [2]int // next local write position (ring)
	tail [2]int // oldest retained local position
	size [2]int // retained count
	idx  [2]*btree.Tree
}

func newRRCore(capR, capS int, indexed bool) *rrCore {
	c := &rrCore{}
	c.keys[0] = make([]uint32, capR)
	c.seqs[0] = make([]uint64, capR)
	c.keys[1] = make([]uint32, capS)
	c.seqs[1] = make([]uint64, capS)
	if indexed {
		c.idx[0] = btree.New()
		c.idx[1] = btree.New()
	}
	return c
}

// expire drops tuples of stream s older than oldestLive from the local
// partition (and index).
func (c *rrCore) expire(s uint8, oldestLive uint64) {
	for c.size[s] > 0 {
		t := c.tail[s]
		if c.seqs[s][t] >= oldestLive {
			return
		}
		if c.idx[s] != nil {
			c.idx[s].Delete(kv.Pair{Key: c.keys[s][t], Ref: uint32(t)})
		}
		c.tail[s] = (t + 1) % len(c.keys[s])
		c.size[s]--
	}
}

// store takes ownership of a tuple (this core is its round-robin assignee).
func (c *rrCore) store(s uint8, key uint32, seq uint64) {
	if c.size[s] == len(c.keys[s]) {
		panic(fmt.Sprintf("paper: rr partition overflow (stream %d, cap %d)", s, len(c.keys[s])))
	}
	h := c.head[s]
	c.keys[s][h] = key
	c.seqs[s][h] = seq
	c.head[s] = (h + 1) % len(c.keys[s])
	c.size[s]++
	if c.idx[s] != nil {
		c.idx[s].Insert(kv.Pair{Key: key, Ref: uint32(h)})
	}
}

// search counts band matches for key against the local partition of stream
// s, accepting only tuples inside the probe's window: sequence numbers in
// [before-w, before).
func (c *rrCore) search(s uint8, band join.Band, key uint32, before, w uint64) uint64 {
	var n uint64
	inWindow := func(seq uint64) bool {
		return seq < before && before-seq <= w
	}
	if c.idx[s] != nil {
		lo, hi := band.Range(key)
		c.idx[s].QueryPairs(lo, hi, func(run []kv.Pair) bool {
			for _, p := range run {
				if inWindow(c.seqs[s][p.Ref]) {
					n++
				}
			}
			return true
		})
		return n
	}
	for i, cnt := 0, c.size[s]; cnt > 0; cnt-- {
		pos := (c.tail[s] + i) % len(c.keys[s])
		i++
		if inWindow(c.seqs[s][pos]) && band.Matches(key, c.keys[s][pos]) {
			n++
		}
	}
	return n
}

// RunRR executes the round-robin partitioned join. The driver models the
// low-latency handshake join's fast-forward propagation as batched
// broadcast rounds: each batch of arrivals is shipped to all cores, every
// core searches its partitions for every tuple and applies updates for the
// tuples it owns, and a barrier closes the round before results propagate in
// arrival order (preserving the output-order guarantee the paper requires).
func RunRR(arrivals []stream.Arrival, cfg RRConfig) join.Stats {
	cores := cfg.Cores
	if cores <= 0 {
		cores = 1
	}
	if cfg.WR <= 0 || cfg.WS <= 0 {
		panic("paper: window lengths must be positive")
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 256
	}
	// Local partition capacity: each core owns ~w/P tuples per stream, plus
	// slack for lazy expiry between owned arrivals and in-flight batches.
	capOf := func(w int) int {
		return w/cores + 4*batch + 64
	}
	rcs := make([]*rrCore, cores)
	for i := range rcs {
		rcs[i] = newRRCore(capOf(cfg.WR), capOf(cfg.WS), cfg.Indexed)
	}

	wlen := [2]uint64{uint64(cfg.WR), uint64(cfg.WS)}
	partial := make([][]uint64, cores)
	for i := range partial {
		partial[i] = make([]uint64, batch)
	}
	seqs := [2]uint64{}                // per-stream arrival counters
	tupleSeqs := make([]uint64, batch) // own-stream ordinal per round position
	oppBounds := make([]uint64, batch) // opposite-stream head per round position

	var wg sync.WaitGroup
	var matches uint64
	start := time.Now()
	for base := 0; base < len(arrivals); base += batch {
		end := base + batch
		if end > len(arrivals) {
			end = len(arrivals)
		}
		round := arrivals[base:end]
		// Assign global per-stream ordinals and record, for each tuple, the
		// opposite stream's head at its arrival instant (its window upper
		// bound — the tl snapshot of Section 4.1 in serialized form).
		for i, a := range round {
			tupleSeqs[i] = seqs[a.Stream]
			oppBounds[i] = seqs[1-a.Stream]
			seqs[a.Stream]++
		}
		// Broadcast the round to every core (the handshake chain's
		// fast-forward propagation).
		for ci := 0; ci < cores; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := rcs[ci]
				mine := partial[ci]
				for i, a := range round {
					opp := 1 - a.Stream
					mine[i] = c.search(opp, cfg.Band, a.Key, oppBounds[i], wlen[opp])
					// Round-robin ownership by global arrival position.
					if (base+i)%cores == ci {
						if tupleSeqs[i] >= wlen[a.Stream] {
							c.expire(a.Stream, tupleSeqs[i]-wlen[a.Stream]+1)
						}
						c.store(a.Stream, a.Key, tupleSeqs[i])
					}
				}
			}(ci)
		}
		wg.Wait()
		// Ordered result propagation.
		for i := range round {
			for ci := 0; ci < cores; ci++ {
				matches += partial[ci][i]
			}
		}
	}
	return join.Stats{Tuples: len(arrivals), Matches: matches, Elapsed: time.Since(start)}
}
