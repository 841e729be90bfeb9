package pimtree

import (
	"fmt"
	"time"

	"pimtree/internal/core"
	"pimtree/internal/kv"
)

// IndexOptions tunes a standalone PIM-Tree index and the Engine's two-stage
// backends (Config.Index). Zero values select the paper's defaults.
type IndexOptions struct {
	// MergeRatio is m: the mutable component merges into the immutable one
	// after m*w inserts. Valid values lie in (0, 1]; zero selects the
	// default. The paper recommends 1/16 for single-threaded use (the
	// default here, and in every Engine mode, whose indexes each have one
	// writer) and 1 under heavy concurrency (used only by the paper-figure
	// runs of its shared-index join).
	MergeRatio float64
	// InsertionDepth is DI: the depth of the immutable component whose
	// nodes anchor the insert partitions. Deeper means more, smaller
	// partitions (more concurrency, higher routing cost). Default 2. The
	// Engine's IMTree backend, the PIM-Tree at depth 0, ignores it.
	InsertionDepth int
}

// validate is the IndexOptions check shared by NewIndex and Open.
func (o IndexOptions) validate() error {
	// Zero means "use the default"; everything else must land in (0, 1]
	// (the negated form also rejects NaN).
	if o.MergeRatio != 0 && !(o.MergeRatio > 0 && o.MergeRatio <= 1) {
		return fmt.Errorf("pimtree: merge ratio %f outside (0, 1] (zero selects the default)", o.MergeRatio)
	}
	if o.InsertionDepth < 0 {
		return fmt.Errorf("pimtree: insertion depth %d must be >= 0", o.InsertionDepth)
	}
	return nil
}

// Index is a concurrent sliding-window index: a PIM-Tree plus the
// maintenance contract that makes coarse-grained disposal work. Entries are
// (key, ref) pairs where ref is an opaque 32-bit handle the caller uses to
// locate the tuple (typically a ring-buffer slot).
//
// Insert and Search are safe for concurrent use. Maintain must be called
// with external synchronization (no concurrent Insert), which is what the
// join drivers' merge barriers provide.
type Index struct {
	pt *core.SharedPIMTree
}

// NewIndex creates an index sized for a window of windowLen tuples.
func NewIndex(windowLen int, opt IndexOptions) (*Index, error) {
	if windowLen <= 0 {
		return nil, fmt.Errorf("pimtree: window length %d must be positive", windowLen)
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	cfg := core.PIMTreeConfig{
		MergeRatio:     opt.MergeRatio,
		InsertionDepth: opt.InsertionDepth,
	}
	return &Index{pt: core.NewSharedPIMTree(windowLen, cfg, false)}, nil
}

// Insert adds an entry. Safe for concurrent use.
func (ix *Index) Insert(key, ref uint32) {
	ix.pt.Insert(kv.Pair{Key: key, Ref: ref})
}

// Search visits every entry with lo <= key <= hi in key order. The result
// may include entries whose tuples have expired but are not yet merged away;
// callers filter via their window, as the join drivers do. Returning false
// from visit stops the scan. Safe for concurrent use with Insert.
func (ix *Index) Search(lo, hi uint32, visit func(key, ref uint32) bool) {
	ix.pt.QueryPairs(lo, hi, func(run []kv.Pair) bool {
		for _, p := range run {
			if !visit(p.Key, p.Ref) {
				return false
			}
		}
		return true
	})
}

// NeedsMaintenance reports whether the mutable component has reached the
// merge threshold.
func (ix *Index) NeedsMaintenance() bool { return ix.pt.NeedsMerge() }

// Maintain merges the mutable component into the immutable one, dropping
// entries for which live returns false. It must not run concurrently with
// Insert or Search. Returns the merge duration.
func (ix *Index) Maintain(live func(ref uint32) bool) time.Duration {
	return ix.pt.MergeInPlace(func(p kv.Pair) bool { return live(p.Ref) })
}

// Len returns the number of stored entries (including expired-but-unmerged
// ones).
func (ix *Index) Len() int { return ix.pt.Len() }

// Subindexes returns the number of insert partitions currently active.
func (ix *Index) Subindexes() int { return ix.pt.Subindexes() }

// MemoryStats describes the index footprint in bytes.
type MemoryStats struct {
	ImmutableLeafBytes  int
	ImmutableInnerBytes int
	MutableBytes        int
	MergeBufferBytes    int
}

// Memory reports the index footprint.
func (ix *Index) Memory() MemoryStats {
	m := ix.pt.Memory()
	return MemoryStats{
		ImmutableLeafBytes:  m.TSLeafBytes,
		ImmutableInnerBytes: m.TSInnerBytes,
		MutableBytes:        m.TIBytes,
		MergeBufferBytes:    m.BufferBytes,
	}
}
