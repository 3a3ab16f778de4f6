package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/pmu"
	"repro/internal/trace"
)

// IntegrateByRegister implements the §V-A extension for timer-switching
// architectures: instead of bracketing items with marker timestamps, the
// running thread keeps the current data-item ID in a reserved
// general-purpose register (r13 in the paper; reg selects the index here),
// which PEBS snapshots into every sample. Mapping a sample to its item is
// then a direct register read — robust even when a user-level scheduler
// migrates an item off the core mid-processing and resumes it later, a case
// interval-based integration fundamentally cannot handle.
//
// A register value of 0 means "no item on core" and such samples count as
// unattributed. Item Begin/End are reconstructed as the first/last sample
// carrying the item's ID (per core); items interleaved by the scheduler
// therefore have overlapping [Begin, End] windows, which is expected.
func IntegrateByRegister(set *trace.Set, reg int, opts Options) (*Analysis, error) {
	if set == nil {
		return nil, fmt.Errorf("core: nil trace set")
	}
	if set.Syms == nil {
		return nil, fmt.Errorf("core: trace set has no symbol table")
	}
	if set.FreqHz == 0 {
		return nil, fmt.Errorf("core: trace set has zero TSC frequency")
	}
	if reg < 0 || reg >= pmu.NumRegs {
		return nil, fmt.Errorf("core: register index %d out of range", reg)
	}
	a := &Analysis{FreqHz: set.FreqHz, MeanSampleGap: map[int32]float64{}}

	type key struct {
		core int32
		id   uint64
	}
	builders := map[key]*Item{}
	var order []key

	perCoreMinMax := map[int32][2]uint64{}
	perCoreN := map[int32]int{}

	idx := make([]int, 0, len(set.Samples))
	for i := range set.Samples {
		idx = append(idx, i)
	}
	slices.SortStableFunc(idx, func(x, y int) int {
		sx, sy := &set.Samples[x], &set.Samples[y]
		if sx.Core != sy.Core {
			return cmp.Compare(sx.Core, sy.Core)
		}
		return cmp.Compare(sx.TSC, sy.TSC)
	})

	res := set.Syms.NewResolver()
	for _, i := range idx {
		s := &set.Samples[i]
		if s.Event != opts.Event {
			a.Diag.IgnoredEventSamples++
			continue
		}
		mm, ok := perCoreMinMax[s.Core]
		if !ok {
			mm = [2]uint64{s.TSC, s.TSC}
		} else {
			if s.TSC < mm[0] {
				mm[0] = s.TSC
			}
			if s.TSC > mm[1] {
				mm[1] = s.TSC
			}
		}
		perCoreMinMax[s.Core] = mm
		perCoreN[s.Core]++

		id := s.Regs[reg]
		if id == 0 {
			a.Diag.UnattributedSamples++
			continue
		}
		k := key{core: s.Core, id: id}
		b := builders[k]
		if b == nil {
			// Register-tagged attribution has no marker pairing to grade;
			// every sample carries its item ID directly, so confidence is
			// full by construction.
			b = &Item{ID: id, Core: s.Core, BeginTSC: s.TSC, EndTSC: s.TSC, Confidence: 1}
			builders[k] = b
			order = append(order, k)
		}
		if s.TSC < b.BeginTSC {
			b.BeginTSC = s.TSC
		}
		if s.TSC > b.EndTSC {
			b.EndTSC = s.TSC
		}
		b.SampleCount++
		fn := res.Resolve(s.IP)
		if fn == nil {
			b.UnresolvedSamples++
			a.Diag.UnresolvedSamples++
			continue
		}
		attachSample(b, fn, s.TSC)
	}
	hits, misses := res.Stats()
	a.Diag.SymCacheHits = int(hits)
	a.Diag.SymCacheMisses = int(misses)

	for core, mm := range perCoreMinMax {
		if n := perCoreN[core]; n >= 2 {
			a.MeanSampleGap[core] = float64(mm[1]-mm[0]) / float64(n-1)
		}
	}
	for _, k := range order {
		a.Items = append(a.Items, *builders[k])
	}
	SortItems(a.Items)
	return a, nil
}
