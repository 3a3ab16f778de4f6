package wire

import (
	"repro/internal/pmu"
	"repro/internal/trace"
)

// The v1 callback decoders: a record-at-a-time reading of a single-run
// payload, written independently of the MarkerIter/SampleIter fast paths.
// No product code decodes this way any more; they stay as the reference
// the iterators are compared against (TestIterMatchesDecode,
// FuzzFrameIter, the round-trip tests).

// DecodeMarkers parses a marker run body that is the whole of p (a
// single-run payload without its kind byte), invoking fn per marker in
// order. A callback error aborts the decode.
func DecodeMarkers(p []byte, fn func(trace.Marker) error) error {
	n, p, err := uvarint(p)
	if err != nil {
		return errPayload(TMarkers, "count: %w", err)
	}
	if n > MaxFrameBytes {
		return errPayload(TMarkers, "absurd count %d", n)
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var m trace.Marker
		d, rest, err := varint(p)
		if err != nil {
			return errPayload(TMarkers, "marker %d tsc: %w", i, err)
		}
		m.TSC = prev + uint64(d)
		prev = m.TSC
		m.Item, rest, err = uvarint(rest)
		if err != nil {
			return errPayload(TMarkers, "marker %d item: %w", i, err)
		}
		c, rest, err := varint(rest)
		if err != nil {
			return errPayload(TMarkers, "marker %d core: %w", i, err)
		}
		if c < -1<<31 || c > 1<<31-1 {
			return errPayload(TMarkers, "marker %d core %d out of range", i, c)
		}
		m.Core = int32(c)
		if len(rest) < 1 {
			return errPayload(TMarkers, "marker %d kind: truncated", i)
		}
		if k := trace.Kind(rest[0]); k != trace.ItemBegin && k != trace.ItemEnd {
			return errPayload(TMarkers, "marker %d has invalid kind %d", i, rest[0])
		}
		m.Kind = trace.Kind(rest[0])
		p = rest[1:]
		if err := fn(m); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return errPayload(TMarkers, "%d trailing bytes", len(p))
	}
	return nil
}

// DecodeSamples parses a sample run body that is the whole of p, invoking
// fn per sample in order. A callback error aborts the decode.
func DecodeSamples(p []byte, fn func(pmu.Sample) error) error {
	n, p, err := uvarint(p)
	if err != nil {
		return errPayload(TSamples, "count: %w", err)
	}
	if n > MaxFrameBytes {
		return errPayload(TSamples, "absurd count %d", n)
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var sm pmu.Sample
		d, rest, err := varint(p)
		if err != nil {
			return errPayload(TSamples, "sample %d tsc: %w", i, err)
		}
		sm.TSC = prev + uint64(d)
		prev = sm.TSC
		sm.IP, rest, err = uvarint(rest)
		if err != nil {
			return errPayload(TSamples, "sample %d ip: %w", i, err)
		}
		c, rest, err := varint(rest)
		if err != nil {
			return errPayload(TSamples, "sample %d core: %w", i, err)
		}
		if c < -1<<31 || c > 1<<31-1 {
			return errPayload(TSamples, "sample %d core %d out of range", i, c)
		}
		sm.Core = int32(c)
		if len(rest) < 2 {
			return errPayload(TSamples, "sample %d event/regs flag: truncated", i)
		}
		if pmu.Event(rest[0]) >= pmu.NumEvents {
			return errPayload(TSamples, "sample %d has invalid event %d", i, rest[0])
		}
		sm.Event = pmu.Event(rest[0])
		hasRegs := rest[1]
		rest = rest[2:]
		switch hasRegs {
		case 0:
		case 1:
			sm.Regs = new([pmu.NumRegs]uint64)
			for j := range sm.Regs {
				sm.Regs[j], rest, err = uvarint(rest)
				if err != nil {
					return errPayload(TSamples, "sample %d reg %d: %w", i, j, err)
				}
			}
		default:
			return errPayload(TSamples, "sample %d has invalid regs flag %d", i, hasRegs)
		}
		p = rest
		if err := fn(sm); err != nil {
			return err
		}
	}
	if len(p) != 0 {
		return errPayload(TSamples, "%d trailing bytes", len(p))
	}
	return nil
}
