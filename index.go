package pimtree

import "fmt"

// IndexOptions tunes the Engine's two-stage backends (Config.Index). Zero
// values select the paper's defaults.
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

// validate is Open's check of Config.Index.
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
