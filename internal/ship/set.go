package ship

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ShipSet encodes one complete trace set as wire frames and enqueues them:
// a symbol-table snapshot, then marker/sample batches in per-core
// timestamp order — the order a live per-core ring drain delivers and the
// order the collector's StreamIntegrator requires — then a SetEnd frame
// declaring the totals.
//
// The event interleaving is preserved across batch boundaries: batches
// are cut whenever the record type flips (marker run → sample run) or a
// run reaches BatchRecords, so replaying the frames in arrival order
// reproduces exactly the local feed order. That is what makes the
// collector's integration bit-identical to a local Integrate of the same
// set.
//
// A set is shipped whole or not at all. Everything that can refuse it — a
// closed shipper, an unshippable symbol table, a queue past its admission
// line (ErrQueueFull) — does so at the symtab, before any frame is
// enqueued. A failure after that (a spool that stops taking frames, a batch
// too large to frame) stops the set where it is and returns the error: the
// collector sees a set that never reached its SetEnd and finalizes it as
// aborted, never a quietly thinner one.
func (s *Shipper) ShipSet(set *trace.Set) error {
	if set == nil {
		return fmt.Errorf("ship: nil trace set")
	}
	if set.FreqHz == 0 {
		return fmt.Errorf("ship: trace set has zero TSC frequency")
	}
	symPayload, err := wire.AppendSymtab(nil, set.FreqHz, set.Syms)
	if err != nil {
		return err
	}
	if err := s.enqueueFrame(wire.Frame{Type: wire.TSymtab, Payload: symPayload}, true); err != nil {
		return err
	}

	// Merge both streams into per-core timestamp order, markers before
	// samples at equal timestamps (stable sort, markers appended first) —
	// the same discipline the local online-monitor feed uses.
	type ev struct {
		tsc    uint64
		core   int32
		marker int32 // index into set.Markers, -1 for a sample
		sample int32
	}
	evs := make([]ev, 0, len(set.Markers)+len(set.Samples))
	for i := range set.Markers {
		m := &set.Markers[i]
		evs = append(evs, ev{tsc: m.TSC, core: m.Core, marker: int32(i), sample: -1})
	}
	for i := range set.Samples {
		sm := &set.Samples[i]
		evs = append(evs, ev{tsc: sm.TSC, core: sm.Core, marker: -1, sample: int32(i)})
	}
	slices.SortStableFunc(evs, func(a, b ev) int {
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.tsc, b.tsc)
	})

	var (
		markerRun []trace.Marker
		sampleRun []pmu.Sample
	)
	// flush ships the open run — at most one is non-empty, since a record of
	// the other kind flushes it first. Each run is encoded straight into a
	// pooled frame buffer (sized for the run's worst case, so the in-place
	// build cannot outgrow it); the same bytes then serve the spool append
	// and the socket write.
	flush := func() (err error) {
		switch {
		case len(markerRun) > 0:
			err = s.enqueueEncoded(wire.TMarkers, wire.MarkersFrameBound(len(markerRun)), false,
				func(dst []byte) []byte { return wire.AppendMarkers(dst, markerRun) })
			markerRun = markerRun[:0]
		case len(sampleRun) > 0:
			err = s.enqueueEncoded(wire.TSamples, wire.SamplesFrameBound(len(sampleRun)), false,
				func(dst []byte) []byte { return wire.AppendSamples(dst, sampleRun) })
			sampleRun = sampleRun[:0]
		}
		return err
	}
	for _, e := range evs {
		isMarker := e.marker >= 0
		if (isMarker && len(sampleRun) > 0) || (!isMarker && len(markerRun) > 0) {
			if err := flush(); err != nil {
				return err
			}
		}
		if isMarker {
			markerRun = append(markerRun, set.Markers[e.marker])
		} else {
			sampleRun = append(sampleRun, set.Samples[e.sample])
		}
		if len(markerRun)+len(sampleRun) >= s.cfg.BatchRecords {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	end := wire.AppendSetEnd(nil, wire.SetEnd{
		Markers: uint64(len(set.Markers)),
		Samples: uint64(len(set.Samples)),
	})
	if err := s.enqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: end}, false); err != nil {
		return err
	}
	s.metSets.Inc()
	return nil
}
