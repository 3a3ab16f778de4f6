package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/symtab"
)

// FunctionRow summarizes one function's per-item estimates across an
// analysis: the distribution a diagnostician scans to find which function
// fluctuates (e.g. Fig. 8's observation that "f3 takes much longer time
// than f1 when the cache does not hit").
type FunctionRow struct {
	Fn *symtab.Fn
	// PerItemUs summarizes the function's per-item elapsed times in µs
	// over every item in the analysis: first-to-last estimates where >= 2
	// samples exist, count×mean-gap fallbacks for single-sample items,
	// and zero for items the function never appeared in.
	PerItemUs stats.Summary
	// EstimableItems is how many items had >= 2 samples in the function.
	EstimableItems int
	// TotalItems is how many items had any sample in the function.
	TotalItems int
	// FluctuationRatio is max/mean of the per-item times (zeros included)
	// — the headline "how badly does this function fluctuate" number: ~1
	// for steady functions, large when one item's cost dwarfs the rest.
	FluctuationRatio float64
}

// FunctionReport aggregates per-function distributions over all items,
// sorted by fluctuation ratio (most suspicious first), tie-broken by mean.
func FunctionReport(a *Analysis) []FunctionRow {
	type series struct {
		fn        *symtab.Fn
		us        []float64
		total     int
		estimable int
	}
	// The first pass counts each function's spans, so the second fills
	// series of exactly that size.
	byFn := map[*symtab.Fn]int{}
	var ss []series
	for i := range a.Items {
		for _, fs := range a.Items[i].Funcs {
			g, ok := byFn[fs.Fn]
			if !ok {
				g = len(ss)
				byFn[fs.Fn] = g
				ss = append(ss, series{fn: fs.Fn})
			}
			ss[g].total++
		}
	}
	for g := range ss {
		ss[g].us = make([]float64, 0, ss[g].total)
	}
	for i := range a.Items {
		it := &a.Items[i]
		for _, fs := range it.Funcs {
			g := &ss[byFn[fs.Fn]]
			switch {
			case fs.Estimable():
				g.estimable++
				g.us = append(g.us, a.CyclesToMicros(fs.Cycles()))
			default:
				// §V-B1: a single sample cannot give a first-to-last
				// estimate, but ignoring it would hide exactly the
				// collapses this report exists to show (a function that
				// is huge for one item and vestigial for the rest).
				// Fall back to the count×mean-gap estimate.
				gap := a.MeanSampleGap[it.Core]
				g.us = append(g.us, a.CyclesToMicros(uint64(fs.CyclesByGap(gap))))
			}
		}
	}
	rows := make([]FunctionRow, 0, len(ss))
	padded := make([]float64, len(a.Items))
	for i := range ss {
		g := &ss[i]
		// Items in which the function produced no sample at all count as
		// zero-time observations: "this function did (almost) nothing for
		// that item" is precisely the signal when the same function
		// dominates another item (Fig. 8's f3). Each series is padded
		// with them in one scratch slice, which the summary sorts.
		us := g.us
		if len(us) < len(a.Items) {
			clear(padded[copy(padded, us):])
			us = padded
		}
		row := FunctionRow{
			Fn:             g.fn,
			PerItemUs:      stats.SummarizeSorting(us),
			EstimableItems: g.estimable,
			TotalItems:     g.total,
		}
		if row.PerItemUs.Mean > 0 {
			row.FluctuationRatio = row.PerItemUs.Max / row.PerItemUs.Mean
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		// Functions that never accumulated two samples in any item are
		// stray-sample noise; rank them below every substantive row no
		// matter how extreme their ratio looks.
		si, sj := rows[i].EstimableItems > 0, rows[j].EstimableItems > 0
		if si != sj {
			return si
		}
		if rows[i].FluctuationRatio != rows[j].FluctuationRatio {
			return rows[i].FluctuationRatio > rows[j].FluctuationRatio
		}
		return rows[i].PerItemUs.Mean > rows[j].PerItemUs.Mean
	})
	return rows
}

// FunctionReportString renders the analysis as a stable, byte-comparable
// text report: the integration diagnostics, the mean item confidence, and
// one row per function. This is the format the golden-trace fixtures under
// internal/trace/testdata pin — any change here must regenerate them
// (go generate ./internal/trace).
func FunctionReportString(a *Analysis) string {
	var b strings.Builder
	conf := 0.0
	for i := range a.Items {
		conf += a.Items[i].Confidence
	}
	if len(a.Items) > 0 {
		conf /= float64(len(a.Items))
	}
	fmt.Fprintf(&b, "items %d mean-confidence %.3f\n", len(a.Items), conf)
	d := a.Diag
	fmt.Fprintf(&b, "diag unattributed %d unresolved %d orphan-ends %d reopened %d unclosed %d repaired %d\n",
		d.UnattributedSamples, d.UnresolvedSamples, d.OrphanEndMarkers,
		d.ReopenedItems, d.UnclosedItems, d.RepairedMarkers)
	for _, row := range FunctionReport(a) {
		fmt.Fprintf(&b, "fn %-8s ratio %7.3f mean %9.3fus p99 %9.3fus max %9.3fus estimable %d/%d\n",
			row.Fn.Name, row.FluctuationRatio, row.PerItemUs.Mean,
			row.PerItemUs.P99, row.PerItemUs.Max, row.EstimableItems, row.TotalItems)
	}
	return b.String()
}
