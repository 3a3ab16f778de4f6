package ship

import (
	"fmt"

	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ShipSet encodes one complete trace set as wire frames and enqueues them:
// a symbol-table snapshot, then the records in stream feed order
// (the trace.Feed walk: per core by timestamp, markers first at equal
// timestamps — the order a live per-core ring drain delivers and the order
// the collector's StreamIntegrator requires), then a SetEnd frame declaring
// the totals. On a set whose streams are each in (core, timestamp) order,
// as every captured or decoded set is, the walk is a merge: nothing is
// sorted and nothing allocated to order the records. ShipSet only reads
// the records, so the walk's rule — a returned record may be rewritten, a
// record not yet returned may not — holds trivially.
//
// Markers and samples travel interleaved, exactly as the feed has them, in
// TRecords frames. A frame is built in a buffer of the pool's smallest class
// and ends only when what is left of that buffer could not take one more
// worst-case record, at BatchRecords records, or with the set — never where
// the record kind flips — so replaying the frames in arrival order
// reproduces the local feed order record for record. The collector's
// integration therefore matches a StreamIntegrator fed locally, bit for bit.
// It matches a local Integrate of the same set except in two cases: a
// sample on its item's End cycle, which Integrate counts in the item and the
// feed order leaves unattributed, and an item never closed, which Integrate
// drops and the stream flushes at the end with confidence ×0.25 (DESIGN §7).
//
// A set is shipped whole or not at all. Everything that can refuse it — a
// closed shipper, an unshippable symbol table, a queue past its admission
// line (ErrQueueFull) — does so at the symtab, before any frame is
// enqueued. A failure after that (a spool that stops taking frames) stops
// the set where it is and returns the error: the collector sees a set that
// never reached its SetEnd and finalizes it as aborted, never a quietly
// thinner one.
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

	var (
		buf       *wire.Buf // the frame being built, nil between frames
		dst       []byte    // its encoding so far, inside buf
		n         int       // records in it, the open run's included
		base      uint64    // TSC of the last record encoded into it
		markerRun []trace.Marker
		sampleRun []pmu.Sample
	)
	// room is what the frame can still take: the smallest class, whatever
	// buffer the pool handed out, less the encoding so far and the CRC.
	room := func() int { return wire.MinBufBytes - 4 - len(dst) }
	// closeRun encodes the open run — at most one is non-empty, since a
	// record of the other kind closes it first — into the frame.
	closeRun := func() {
		switch {
		case len(markerRun) > 0:
			dst = wire.AppendMarkerRun(dst, base, markerRun)
			base = markerRun[len(markerRun)-1].TSC
			markerRun = markerRun[:0]
		case len(sampleRun) > 0:
			dst = wire.AppendSampleRun(dst, base, sampleRun)
			base = sampleRun[len(sampleRun)-1].TSC
			sampleRun = sampleRun[:0]
		}
	}
	endFrame := func() error {
		if buf == nil {
			return nil
		}
		closeRun()
		err := s.enqueueBuilt(buf, dst, false)
		buf, n, base = nil, 0, 0
		return err
	}
	feed := set.Feed()
	for r, ok := feed.Next(); ok; r, ok = feed.Next() {
		kind, open := wire.TSamples, len(sampleRun)
		if r < 0 {
			kind, open = wire.TMarkers, len(markerRun)
		}
		if open == 0 {
			closeRun()
		}
		// An open run is budgeted at its worst case; when that no longer fits
		// one more record, encoding it tells how much room there really is.
		if buf != nil && room() < wire.RunBound(kind, open+1) {
			closeRun()
			if room() < wire.RunBound(kind, 1) {
				if err := endFrame(); err != nil {
					return err
				}
			}
		}
		if buf == nil {
			buf, dst = s.beginFrame(wire.TRecords, wire.MinBufBytes)
		}
		if r < 0 {
			markerRun = append(markerRun, set.Markers[^r])
		} else {
			sampleRun = append(sampleRun, set.Samples[r])
		}
		if n++; n >= s.cfg.BatchRecords {
			if err := endFrame(); err != nil {
				return err
			}
		}
	}
	if err := endFrame(); err != nil {
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
