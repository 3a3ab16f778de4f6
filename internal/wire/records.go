package wire

import (
	"repro/internal/pmu"
	"repro/internal/trace"
)

// The TRecords payload. The hybrid tracer interleaves two markers per item
// with a PEBS sample every R events, so a set's feed flips record kind every
// few records; a frame per flip would be mostly header. A TRecords payload
// instead carries the feed as it is — a sequence of runs, back to back until
// the payload ends:
//
//	kind    uint8    // TMarkers or TSamples
//	run     // the AppendMarkers / AppendSamples layout: count, records
//
// with one difference from a payload holding a single run: the ΔTSC chain
// runs through the whole frame. A run's first record deltas against the last
// record of the run before it, and only the frame's first record against
// zero. Consecutive runs may be of the same kind, and a run may be empty.

// RunBound returns the worst-case encoded size of one run of n records of
// the given kind (kind byte + count + n max-width records): what must be
// free in a buffer for the run to be encoded in place without outgrowing it.
func RunBound(kind Type, n int) int {
	if kind == TMarkers {
		return 1 + 10 + n*maxMarkerEnc
	}
	return 1 + 10 + n*maxSampleEnc
}

// AppendMarkerRun appends one marker run to a TRecords payload. base is the
// TSC of the frame's previous record, 0 when the run opens the frame.
func AppendMarkerRun(dst []byte, base uint64, ms []trace.Marker) []byte {
	return appendMarkers(append(dst, byte(TMarkers)), base, ms)
}

// AppendSampleRun is AppendMarkerRun for a run of samples.
func AppendSampleRun(dst []byte, base uint64, ss []pmu.Sample) []byte {
	return appendSamples(append(dst, byte(TSamples)), base, ss)
}

// RecordIter decodes a TRecords payload one record at a time, in feed order.
// Each run is decoded by the MarkerIter/SampleIter that decodes a single-run
// payload, started at the run's count with the chained delta base, so the
// two accept exactly the same records (FuzzFrameIter pins it). The lifetime
// rule is the iterators': it aliases the payload.
type RecordIter struct {
	p    []byte
	i    int  // offset of the open run's kind byte, or the next run's
	kind Type // the open run's, 0 between runs
	m    MarkerIter
	s    SampleIter
	prev uint64 // TSC of the last record of the runs before
	err  error
}

// IterRecords builds an iterator over a TRecords payload.
func IterRecords(payload []byte) RecordIter { return RecordIter{p: payload} }

// Next decodes the next record into *m or *sm and says which: TMarkers,
// TSamples, or 0 at the end of the payload or on malformed input (check
// Err).
func (it *RecordIter) Next(m *trace.Marker, sm *pmu.Sample) Type {
	for it.err == nil {
		switch it.kind {
		case TMarkers:
			if it.m.Next(m) {
				return TMarkers
			}
			it.kind, it.i, it.prev, it.err = 0, it.i+1+it.m.i, it.m.prev, it.m.err
		case TSamples:
			if it.s.Next(sm) {
				return TSamples
			}
			it.kind, it.i, it.prev, it.err = 0, it.i+1+it.s.i, it.s.prev, it.s.err
		default:
			if it.i == len(it.p) {
				return 0
			}
			switch it.kind = Type(it.p[it.i]); it.kind {
			case TMarkers:
				it.m = IterMarkers(it.p[it.i+1:])
				it.m.prev = it.prev
			case TSamples:
				it.s = IterSamples(it.p[it.i+1:])
				it.s.prev = it.prev
			default:
				it.err = errPayload(TRecords, "run at byte %d has unknown kind %d", it.i, it.p[it.i])
			}
		}
	}
	return 0
}

// Err returns the decode error, if any.
func (it *RecordIter) Err() error { return it.err }
