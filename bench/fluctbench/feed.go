package main

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// defaultBatchRecords is ship.Config.BatchRecords' default, which the
// topology leaves alone; the wire probe cuts frames the same way.
const defaultBatchRecords = 512

// feedEvent is one record of a set in shipping order: an index into
// set.Markers (sample < 0) or into set.Samples (marker < 0).
type feedEvent struct{ marker, sample int32 }

// feedOrder returns the set's records in the order ShipSet sends them and
// the collector's stream integrator therefore sees them: per core by
// timestamp, markers before samples at equal timestamps.
func feedOrder(set *trace.Set) []feedEvent {
	type ev struct {
		tsc  uint64
		core int32
		feedEvent
	}
	evs := make([]ev, 0, len(set.Markers)+len(set.Samples))
	for i := range set.Markers {
		evs = append(evs, ev{set.Markers[i].TSC, set.Markers[i].Core, feedEvent{int32(i), -1}})
	}
	for i := range set.Samples {
		evs = append(evs, ev{set.Samples[i].TSC, set.Samples[i].Core, feedEvent{-1, int32(i)}})
	}
	slices.SortStableFunc(evs, func(a, b ev) int {
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.tsc, b.tsc)
	})
	out := make([]feedEvent, len(evs))
	for i := range evs {
		out[i] = evs[i].feedEvent
	}
	return out
}

// frameRun is the records of one data frame: a run of markers or a run of
// samples, never both.
type frameRun struct {
	markers []trace.Marker
	samples []pmu.Sample
}

// frameRuns cuts the feed into the runs ShipSet turns into frames: a run
// ends where the record kind flips or at batch records.
func frameRuns(set *trace.Set, feed []feedEvent, batch int) []frameRun {
	var runs []frameRun
	var cur frameRun
	flush := func() {
		if len(cur.markers)+len(cur.samples) > 0 {
			runs = append(runs, cur)
			cur = frameRun{}
		}
	}
	for _, e := range feed {
		if e.marker >= 0 {
			if len(cur.samples) > 0 || len(cur.markers) >= batch {
				flush()
			}
			cur.markers = append(cur.markers, set.Markers[e.marker])
		} else {
			if len(cur.markers) > 0 || len(cur.samples) >= batch {
				flush()
			}
			cur.samples = append(cur.samples, set.Samples[e.sample])
		}
	}
	flush()
	return runs
}

// streamItems is the local reference for the output check: one
// StreamIntegrator pass over the set in feed order, items in the fleet
// view's (begin, core) order.
func streamItems(set *trace.Set) ([]core.Item, error) {
	var items []core.Item
	integ, err := core.NewStreamIntegrator(set.Syms, core.Options{}, func(it *core.Item) {
		items = append(items, *it)
	})
	if err != nil {
		return nil, err
	}
	for _, e := range feedOrder(set) {
		if e.marker >= 0 {
			integ.Marker(set.Markers[e.marker])
		} else {
			integ.Sample(set.Samples[e.sample])
		}
	}
	integ.Close()
	sortItems(items)
	return items, nil
}

func sortItems(items []core.Item) {
	slices.SortStableFunc(items, func(a, b core.Item) int {
		if c := cmp.Compare(a.BeginTSC, b.BeginTSC); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
}

func renderItems(freqHz uint64, items []core.Item) []byte {
	var buf bytes.Buffer
	collector.RenderItems(&buf, freqHz, items)
	return buf.Bytes()
}
