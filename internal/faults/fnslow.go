package faults

import "repro/internal/trace"

// slowFunction implements the FnSlow* plan fields: a per-core, in-place
// dilation of the named function's sample runs past the onset timestamp.
//
// Per core, events (markers and samples) are walked in timestamp order. A
// "run" is a maximal stretch of consecutive samples whose IP resolves into
// the target function, unbroken by a marker or a foreign sample — which on
// these traces is one item's visit to the function. Inside a run past the
// onset, gaps between samples multiply by FnSlowFactor; every later event
// on the core shifts by the time the run added. The transformation is
// monotonic within a core (factor > 0), so per-core event order — and
// therefore every downstream order-sensitive consumer — sees a plausibly
// slowed trace, not a scrambled one.
//
// The result is exact ground truth for the detector: the item containing a
// run slows by the run's added cycles, the per-function first-to-last span
// of the target function dilates by the factor, and every other function's
// span is untouched.
func (p Plan) slowFunction(out *trace.Set, rep *Report) {
	if p.FnSlowName == "" || p.FnSlowFactor <= 0 || p.FnSlowFactor == 1 {
		return
	}
	if out.Syms == nil {
		return
	}
	fn := out.Syms.ByName(p.FnSlowName)
	if fn == nil {
		return
	}

	// Onset: FnSlowAfter of the global TSC span.
	lo, hi, any := uint64(0), uint64(0), false
	scan := func(tsc uint64) {
		if !any {
			lo, hi, any = tsc, tsc, true
			return
		}
		if tsc < lo {
			lo = tsc
		}
		if tsc > hi {
			hi = tsc
		}
	}
	for _, m := range out.Markers {
		scan(m.TSC)
	}
	for i := range out.Samples {
		scan(out.Samples[i].TSC)
	}
	if !any {
		return
	}
	onset := lo
	if p.FnSlowAfter > 0 && p.FnSlowAfter < 1 && hi > lo {
		onset = lo + uint64(float64(hi-lo)*p.FnSlowAfter)
	}
	rep.FnSlowOnsetTSC = onset

	// Walk the records in stream feed order (the trace.Feed walk): core by
	// core, by timestamp, markers first at equal timestamps and then input
	// position, so the walk is deterministic. The TSCs rewritten below do
	// not disturb it: the walk never re-reads a record it has returned, and
	// each is rewritten only once returned, so the order is the one the
	// timestamps had before the walk started.
	var (
		core int32
		// off is signed: factors below 1 (a speedup) pull later events
		// earlier. Shifts saturate at zero like skewCores' — clocks do not
		// wrap.
		off               int64
		inRun             bool
		runFirst, runLast uint64 // original TSCs of the current run
	)
	shift := func(tsc uint64) uint64 {
		if off >= 0 {
			return tsc + uint64(off)
		}
		neg := uint64(-off)
		if tsc < neg {
			return 0
		}
		return tsc - neg
	}
	endRun := func() {
		if !inRun {
			return
		}
		inRun = false
		added := int64(float64(runLast-runFirst) * (p.FnSlowFactor - 1))
		off += added
		rep.FnSlowRuns++
		if added >= 0 {
			rep.FnSlowAddedCycles += uint64(added)
		} else {
			rep.FnSlowAddedCycles += uint64(-added)
		}
	}
	feed := out.Feed()
	for k := 0; ; k++ {
		r, ok := feed.Next()
		if !ok {
			break
		}
		var (
			c      int32
			tsc    *uint64
			target bool
		)
		if r < 0 {
			m := &out.Markers[^r]
			c, tsc = m.Core, &m.TSC
		} else {
			s := &out.Samples[r]
			c, tsc = s.Core, &s.TSC
			target = fn.Contains(s.IP) && s.TSC >= onset
		}
		if k == 0 || c != core {
			endRun()
			core, off = c, 0
		}
		orig := *tsc
		if !target {
			endRun()
			*tsc = shift(orig)
			continue
		}
		if !inRun {
			inRun = true
			runFirst = orig
		}
		runLast = orig
		*tsc = shift(runFirst) + uint64(float64(orig-runFirst)*p.FnSlowFactor)
	}
	endRun()
}
