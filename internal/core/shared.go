package core

import (
	"sync"
	"sync/atomic"
	"time"

	"pimtree/internal/kv"
)

// SharedPIMTree is the PIM-Tree as Section 3.3.3 shares it between threads:
// TS is searched lock-free, each TI subindex has its own mutex, and a range
// scan that runs on into the next subindex takes that subindex's lock before
// it releases its own (Algorithm 2). It wraps a single-writer PIMTree and
// adds only the locks, an atomic TI count, and the per-subindex insert
// counts behind Figure 13a. Insert, Query and QueryPairs are safe for
// concurrent use; a merge needs the caller to hold inserts off.
type SharedPIMTree struct {
	t      *PIMTree
	single bool       // one lock for all of TI: the lock-granularity ablation
	global sync.Mutex // the single lock
	locks  []paddedMutex
	tiLen  atomic.Int64
	counts []atomic.Int64 // inserts per subindex since the last install or reset
}

// paddedMutex keeps neighbouring subindex locks off one cache line.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// NewSharedPIMTree returns an empty shared PIM-Tree for a window of length
// w. singleLock guards every subindex with one mutex instead of one each; it
// exists for the lock-granularity ablation, the paper's design locks per
// subindex.
func NewSharedPIMTree(w int, cfg PIMTreeConfig, singleLock bool) *SharedPIMTree {
	return share(NewPIMTree(w, cfg), singleLock)
}

// share wraps t with one lock and one insert count per subindex of its TS.
func share(t *PIMTree, singleLock bool) *SharedPIMTree {
	s := &SharedPIMTree{t: t, single: singleLock}
	s.resize()
	return s
}

// resize fits the locks and counts to the subindexes of the TS just
// installed.
func (s *SharedPIMTree) resize() {
	s.locks = make([]paddedMutex, len(s.t.subs))
	s.counts = make([]atomic.Int64, len(s.t.subs))
	s.tiLen.Store(int64(s.t.tiLen))
}

// mu returns the lock that guards subindex i.
func (s *SharedPIMTree) mu(i int) *sync.Mutex {
	if s.single {
		return &s.global
	}
	return &s.locks[i].Mutex
}

// Insert adds p to its subindex under that subindex's lock (Algorithm 1).
func (s *SharedPIMTree) Insert(p kv.Pair) {
	i := s.t.route(p.Key)
	s.mu(i).Lock()
	s.t.subs[i].Insert(p)
	s.mu(i).Unlock()
	s.tiLen.Add(1)
	s.counts[i].Add(1)
}

// Query is PIMTree.Query with TI scanned under the locks.
func (s *SharedPIMTree) Query(lo, hi uint32, emit func(kv.Pair) bool) (stopped bool) {
	start, stopped := s.t.ts.QueryVia(lo, hi, s.t.effDI, emit)
	return stopped || lockedScan(s, start, lo, hi, emit, (*PIMTree).scanSub)
}

// QueryPairs is PIMTree.QueryPairs with TI scanned under the locks. A TI run
// is valid only while its subindex's lock is held: emit must consume it, not
// retain it.
func (s *SharedPIMTree) QueryPairs(lo, hi uint32, emit func([]kv.Pair) bool) (stopped bool) {
	start, stopped := s.t.ts.QueryPairsVia(lo, hi, s.t.effDI, emit)
	return stopped || lockedScan(s, start, lo, hi, emit, (*PIMTree).scanSubPairs)
}

// lockedScan is PIMTree.queryTI under the locks, with scan the per-subindex
// step: a scan that runs on into the next subindex takes its lock before it
// releases the current one (Algorithm 2 lines 28–30); the single lock just
// stays held.
func lockedScan[E any](s *SharedPIMTree, start int, lo, hi uint32, emit E,
	scan func(*PIMTree, int, int, uint32, uint32, E) (stopped, more bool)) bool {
	s.mu(start).Lock()
	for i := start; ; i++ {
		stopped, more := scan(s.t, i, start, lo, hi, emit)
		if !more {
			s.mu(i).Unlock()
			return stopped
		}
		if !s.single {
			s.locks[i+1].Lock()
			s.locks[i].Unlock()
		}
	}
}

// NeedsMerge reports whether TI has reached the merge threshold.
func (s *SharedPIMTree) NeedsMerge() bool { return s.tiLen.Load() >= int64(s.t.threshold) }

// Len returns TI+TS element count (including expired-but-unmerged elements).
func (s *SharedPIMTree) Len() int { return int(s.tiLen.Load()) + s.t.ts.Len() }

// Subindexes returns the current number of TI partitions.
func (s *SharedPIMTree) Subindexes() int { return len(s.t.subs) }

// Memory reports the footprint, as PIMTree.Memory.
func (s *SharedPIMTree) Memory() MemoryStats { return s.t.Memory() }

// settled returns the wrapped tree with its TI count brought up to date.
// Callers hold inserts off.
func (s *SharedPIMTree) settled() *PIMTree {
	s.t.tiLen = int(s.tiLen.Load())
	return s.t
}

// MergeInPlace is PIMTree.MergeInPlace. No Insert or Query may run
// concurrently with it.
func (s *SharedPIMTree) MergeInPlace(live func(kv.Pair) bool, survivors ...int) time.Duration {
	d := s.settled().MergeInPlace(live, survivors...)
	s.resize()
	return d
}

// BuildMerged is PIMTree.BuildMerged, shared in the receiver's lock mode.
// Searches may go on in the receiver meanwhile; inserts may not.
func (s *SharedPIMTree) BuildMerged(live func(kv.Pair) bool) (*SharedPIMTree, time.Duration) {
	t, d := s.settled().BuildMerged(live)
	return share(t, s.single), d
}

// InsertCounts returns the per-subindex insert counts accumulated since the
// last merge or reset: the data behind Figure 13a.
func (s *SharedPIMTree) InsertCounts() []int64 {
	out := make([]int64, len(s.counts))
	for i := range out {
		out[i] = s.counts[i].Load()
	}
	return out
}

// ResetInsertCounts zeroes the per-subindex insert counts.
func (s *SharedPIMTree) ResetInsertCounts() {
	for i := range s.counts {
		s.counts[i].Store(0)
	}
}
