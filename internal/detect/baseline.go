package detect

import (
	"slices"

	"repro/internal/obs"
)

// cellKey addresses one cell of the per-(function, core) breakdown.
// Functions key by name, not *symtab.Fn: every shipped set decodes a
// fresh symbol table, so pointer identity does not survive set boundaries
// but the name does.
type cellKey struct {
	name string
	core int32
}

// baseline is the rolling per-(function, core) store of time breakdowns:
// one obs log-linear histogram per cell, in two generations rotated every
// baselineRotate evicted items. Queries merge both generations, so the
// baseline always covers between one and two horizons of history and old
// behaviour decays by whole-generation replacement rather than per-sample
// bookkeeping. Histograms from the retired generation are Reset and
// recycled — steady state allocates nothing.
//
// The store only ever sees items the detector's window has evicted, which
// is the contamination guard: an in-window anomaly cannot shift the
// reference it is about to be judged against.
type baseline struct {
	sinceRotate int
	cur, prev   map[cellKey]*obs.Histogram
	// curItems/prevItems count evicted items per core in each generation,
	// so stats can report a cell's per-item denominator: a function that
	// ran in 6% of items must not be judged by its per-appearance mean
	// alone, or a mix shift (it suddenly runs every item) diffs to zero.
	curItems, prevItems map[int32]uint64
	free                []*obs.Histogram
	merged              *obs.Histogram // scratch for two-generation quantiles
}

func newBaseline() *baseline {
	return &baseline{
		cur:       map[cellKey]*obs.Histogram{},
		prev:      map[cellKey]*obs.Histogram{},
		curItems:  map[int32]uint64{},
		prevItems: map[int32]uint64{},
		merged:    obs.NewHistogram(),
	}
}

// record adds one observation of cycles spent in (name, core).
func (b *baseline) record(name string, core int32, cycles uint64) {
	k := cellKey{name: name, core: core}
	h := b.cur[k]
	if h == nil {
		if n := len(b.free); n > 0 {
			h = b.free[n-1]
			b.free = b.free[:n-1]
			h.Reset()
		} else {
			h = obs.NewHistogram()
		}
		b.cur[k] = h
	}
	h.Record(cycles)
}

// advance ticks the rotation clock by one evicted item on core.
func (b *baseline) advance(core int32) {
	b.curItems[core]++
	b.sinceRotate++
	if b.sinceRotate < baselineRotate {
		return
	}
	b.sinceRotate = 0
	for k, h := range b.prev {
		delete(b.prev, k)
		b.free = append(b.free, h)
	}
	b.prev, b.cur = b.cur, b.prev
	for co := range b.prevItems {
		delete(b.prevItems, co)
	}
	b.prevItems, b.curItems = b.curItems, b.prevItems
}

// stats returns the cell's baseline mean, robust sigma (IQR-based, from
// the merged log-linear quantiles), observation count across both
// generations, and the number of items the core evicted over the same
// horizon (≥ count; the per-item denominator for mix-aware diffs). A zero
// count means the cell has no history at all.
func (b *baseline) stats(name string, core int32) (mean, sigma float64, count, items uint64) {
	k := cellKey{name: name, core: core}
	hc, hp := b.cur[k], b.prev[k]
	count = hc.Count() + hp.Count()
	items = b.curItems[core] + b.prevItems[core]
	if count == 0 {
		return 0, 0, 0, items
	}
	mean = float64(hc.Sum()+hp.Sum()) / float64(count)
	b.merged.Reset()
	b.merged.Merge(hc)
	b.merged.Merge(hp)
	s := b.merged.Snapshot()
	// IQR → sigma under normality: sigma = IQR / 1.349.
	sigma = (s.Quantile(0.75) - s.Quantile(0.25)) / 1.349
	return mean, sigma, count, items
}

// sortFloats is the detector's in-place sort (allocation-free).
func sortFloats(xs []float64) { slices.Sort(xs) }
