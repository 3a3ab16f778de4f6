package trace

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/pmu"
)

// GapBurstFactor is the multiple of a core's mean inter-sample gap above
// which a gap is flagged as a suspected loss burst. PEBS overflow loss is
// bursty — a whole debug-store buffer vanishes at once — so a healthy
// stream's gaps cluster tightly around the mean while a degraded stream
// shows rare, huge holes. 4× keeps ordinary jitter (item switches, cache
// misses stretching the inter-sample distance) below the threshold.
const GapBurstFactor = 4.0

// CoreGaps summarizes one core's stream health.
type CoreGaps struct {
	// Core is the core ID.
	Core int32
	// Samples is the number of samples of the inspected event on the core.
	Samples int
	// MeanGapCycles is the mean inter-sample distance.
	MeanGapCycles float64
	// MaxGapCycles is the largest inter-sample distance observed.
	MaxGapCycles uint64
	// SuspectBursts counts gaps exceeding GapBurstFactor × mean — each one
	// a likely PEBS buffer-overflow loss burst.
	SuspectBursts int
	// EstLostSamples estimates how many samples the suspect gaps swallowed
	// (each gap of g cycles at mean m should have held ≈ g/m − 1 samples).
	EstLostSamples int
	// BeginMarkers / EndMarkers count the instrumentation records; a
	// mismatch means dropped or duplicated marker writes.
	BeginMarkers, EndMarkers int
}

// MarkerImbalance returns |BeginMarkers − EndMarkers|, the coarse count of
// lost-or-doubled marker writes on the core.
func (c CoreGaps) MarkerImbalance() int {
	d := c.BeginMarkers - c.EndMarkers
	if d < 0 {
		d = -d
	}
	return d
}

// Gaps is the per-trace degradation summary: the cheap, integration-free
// health check run before (or instead of) a full Integrate pass to decide
// how much to trust a trace. It is a pure function of the Set.
type Gaps struct {
	// PerCore holds one row per core present in either stream, ascending.
	PerCore []CoreGaps
}

// Degraded reports whether any core shows suspected sample loss or a
// marker imbalance.
func (g Gaps) Degraded() bool {
	for _, c := range g.PerCore {
		if c.SuspectBursts > 0 || c.MarkerImbalance() > 0 {
			return true
		}
	}
	return false
}

// TotalEstLostSamples sums the per-core loss estimates.
func (g Gaps) TotalEstLostSamples() int {
	n := 0
	for _, c := range g.PerCore {
		n += c.EstLostSamples
	}
	return n
}

// String renders a one-line health verdict.
func (g Gaps) String() string {
	bursts, lost, imbalance := 0, 0, 0
	for _, c := range g.PerCore {
		bursts += c.SuspectBursts
		lost += c.EstLostSamples
		imbalance += c.MarkerImbalance()
	}
	if !g.Degraded() {
		return fmt.Sprintf("gaps: healthy (%d cores)", len(g.PerCore))
	}
	return fmt.Sprintf("gaps: DEGRADED — %d suspect bursts (~%d samples lost), marker imbalance %d across %d cores",
		bursts, lost, imbalance, len(g.PerCore))
}

// GapSummary scans the set for the fingerprints of degraded collection:
// outsized holes in each core's sample stream (PEBS loss bursts) and
// Begin/End marker imbalance (lost or doubled marker writes). Only samples
// of ev are considered. The input set is not mutated and may be in any
// record order.
func (s *Set) GapSummary(ev pmu.Event) Gaps {
	sp := obs.StartSpan("trace.GapSummary")
	defer sp.End()
	var g GapScan
	g.Reset(ev)
	for _, m := range s.Markers {
		g.Marker(m)
	}
	for i := range s.Samples {
		g.Sample(&s.Samples[i])
	}
	return g.Summary()
}

// GapScan is GapSummary fed one record at a time, in any order: it keeps
// per-core marker counts and the inspected event's timestamps, and nothing
// else of a record. Reset keeps the buffers, so a collector source scans
// set after set without allocating once warm. Call Reset before first use.
type GapScan struct {
	ev               pmu.Event
	cores            map[int32]*coreScan
	last             *coreScan // the previous record's core: feeds run core by core
	markers, samples int
}

// coreScan is one core's row in the making.
type coreScan struct {
	CoreGaps          // the counts; Summary derives the gap figures on a copy
	tscs     []uint64 // timestamps of the core's samples of ev, arrival order
	live     bool     // a record arrived since Reset
}

// Reset starts a new scan inspecting ev. Cores the previous scan did not
// see are forgotten, so the scan never holds more than one set's worth.
func (g *GapScan) Reset(ev pmu.Event) {
	if g.cores == nil {
		g.cores = map[int32]*coreScan{}
	}
	g.ev, g.last, g.markers, g.samples = ev, nil, 0, 0
	for id, c := range g.cores {
		if !c.live {
			delete(g.cores, id)
			continue
		}
		*c = coreScan{CoreGaps: CoreGaps{Core: id}, tscs: c.tscs[:0]}
	}
}

func (g *GapScan) core(id int32) *coreScan {
	c := g.last
	if c == nil || c.Core != id {
		if c = g.cores[id]; c == nil {
			c = &coreScan{CoreGaps: CoreGaps{Core: id}}
			g.cores[id] = c
		}
		g.last = c
	}
	c.live = true
	return c
}

// Marker feeds one instrumentation record.
func (g *GapScan) Marker(m Marker) {
	g.markers++
	if c := g.core(m.Core); m.Kind == ItemBegin {
		c.BeginMarkers++
	} else {
		c.EndMarkers++
	}
}

// Sample feeds one hardware sample. A sample of another event still makes
// its core present in the summary.
func (g *GapScan) Sample(sm *pmu.Sample) {
	g.samples++
	c := g.core(sm.Core)
	if sm.Event != g.ev {
		return
	}
	c.Samples++
	c.tscs = append(c.tscs, sm.TSC)
}

// Markers returns how many markers were fed since Reset.
func (g *GapScan) Markers() int { return g.markers }

// Samples returns how many samples, of any event, were fed since Reset.
func (g *GapScan) Samples() int { return g.samples }

// Summary returns the health summary of everything fed since Reset. The
// scan can be fed further and summarized again.
func (g *GapScan) Summary() Gaps {
	out := Gaps{PerCore: make([]CoreGaps, 0, len(g.cores))}
	for _, c := range g.cores {
		if !c.live {
			continue
		}
		row, ts := c.CoreGaps, c.tscs
		if len(ts) >= 2 {
			slices.Sort(ts)
			row.MeanGapCycles = float64(ts[len(ts)-1]-ts[0]) / float64(len(ts)-1)
			threshold := GapBurstFactor * row.MeanGapCycles
			for i := 1; i < len(ts); i++ {
				gap := ts[i] - ts[i-1]
				if gap > row.MaxGapCycles {
					row.MaxGapCycles = gap
				}
				if row.MeanGapCycles > 0 && float64(gap) > threshold {
					row.SuspectBursts++
					row.EstLostSamples += int(float64(gap)/row.MeanGapCycles) - 1
				}
			}
		}
		out.PerCore = append(out.PerCore, row)
	}
	slices.SortFunc(out.PerCore, func(a, b CoreGaps) int { return cmp.Compare(a.Core, b.Core) })
	return out
}
