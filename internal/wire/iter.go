package wire

import (
	"encoding/binary"

	"repro/internal/pmu"
	"repro/internal/trace"
)

// Zero-copy record iterators. The v1 callback decoders (kept in
// oracle_test.go as the reference) hand each record to a callback by
// value, and the closure call defeats inlining of the varint reads. The
// iterators instead decode straight out of the frame bytes into a
// caller-owned struct: no per-record allocation, no intermediate slice, no
// copy beyond the field stores themselves. They validate exactly what the
// v1 decoders validate (count bound, core range, kind/event/flag legality,
// trailing bytes) and accept exactly the same payloads — FuzzFrameIter and
// TestIterMatchesDecode pin the two implementations against each other.
//
// Lifetime rule: an iterator aliases the payload it was built over. When
// the payload lives in a pooled frame (FrameView), the view must stay
// retained until the iteration is done — see DESIGN.md §12.

// MarkerIter decodes one marker run — on its own a single-run payload
// (IterMarkers), or a run of a TRecords payload (RecordIter) — one record at
// a time.
type MarkerIter struct {
	p    []byte
	i    int
	n    uint64 // declared record count
	k    uint64 // records yielded so far
	prev uint64 // previous TSC (delta base)
	err  error
}

// IterMarkers builds an iterator over a payload that is one marker run (the
// AppendMarkers layout). An invalid count surfaces on the first Next/Err
// call.
func IterMarkers(payload []byte) MarkerIter {
	it := MarkerIter{p: payload}
	n, i := getUvarint(payload, 0)
	if i < 0 {
		it.err = errPayload(TMarkers, "count: %w", errBadUvarint)
		return it
	}
	if n > MaxFrameBytes {
		it.err = errPayload(TMarkers, "absurd count %d", n)
		return it
	}
	it.n, it.i = n, i
	return it
}

// Next decodes the next marker into *m, returning false at the end of the
// payload or on a malformed record (check Err to tell the two apart).
func (it *MarkerIter) Next(m *trace.Marker) bool {
	if it.err != nil || it.k >= it.n {
		return false
	}
	p := it.p
	d, i := getVarint(p, it.i)
	if i < 0 {
		it.err = errPayload(TMarkers, "marker %d tsc: %w", it.k, errBadVarint)
		return false
	}
	m.TSC = it.prev + uint64(d)
	it.prev = m.TSC
	item, i := getUvarint(p, i)
	if i < 0 {
		it.err = errPayload(TMarkers, "marker %d item: %w", it.k, errBadUvarint)
		return false
	}
	m.Item = item
	c, i := getVarint(p, i)
	if i < 0 {
		it.err = errPayload(TMarkers, "marker %d core: %w", it.k, errBadVarint)
		return false
	}
	if c < -1<<31 || c > 1<<31-1 {
		it.err = errPayload(TMarkers, "marker %d core %d out of range", it.k, c)
		return false
	}
	m.Core = int32(c)
	if uint(i) >= uint(len(p)) {
		it.err = errPayload(TMarkers, "marker %d kind: truncated", it.k)
		return false
	}
	k := trace.Kind(p[i])
	if k != trace.ItemBegin && k != trace.ItemEnd {
		it.err = errPayload(TMarkers, "marker %d has invalid kind %d", it.k, p[i])
		return false
	}
	m.Kind = k
	it.i = i + 1
	it.k++
	return true
}

// NextBatch decodes up to len(dst) markers, returning how many it wrote.
// Zero means the payload is exhausted or malformed — check Err. This is
// the hot-loop form of Next: iterator state lives in locals across the
// batch, and each in-bounds record decodes with no per-record call. Any
// anomaly — a record too close to the payload end for the worst-case
// window, a malformed field, an out-of-range value — rewinds to the record
// start and re-decodes through Next, so acceptance and error text stay
// exactly Next's.
func (it *MarkerIter) NextBatch(dst []trace.Marker) int {
	if it.err != nil {
		return 0
	}
	p := it.p
	i, prev, k := it.i, it.prev, it.k
	n := 0
	for n < len(dst) && k < it.n {
		// Word-packed fast path, as in SampleIter.NextBatch: one 8-byte
		// load covers ΔTSC (≤2 bytes) + item (≤5 bytes), parsed by
		// shifting the word — no per-byte loads or bounds checks. Wider
		// encodings punt to the careful per-record path, which handles
		// every width. i stays at the record start until the record fully
		// decodes, so the punt can re-enter via Next.
		var (
			m                *trace.Marker
			j                int
			u, item, cu, tsc uint64
			w                uint64
			c                int64
			kd               trace.Kind
			b0               byte
		)
		if len(p)-i < maxMarkerEnc {
			goto careful
		}
		m = &dst[n]
		w = binary.LittleEndian.Uint64(p[i:]) // single load; window guarantees 8 bytes
		j = i
		// ΔTSC (zigzag varint)
		if w&0x80 == 0 {
			u = w & 0x7f
			w >>= 8
			j++
		} else if w&0x8000 == 0 {
			u = w&0x7f | (w>>8&0x7f)<<7
			w >>= 16
			j += 2
		} else {
			goto careful
		}
		tsc = prev + uint64(int64(u>>1)^-int64(u&1))
		// item (uvarint, ≤5 bytes in-word)
		if w&0x80 == 0 {
			item = w & 0x7f
			j++
		} else if w&0x8000 == 0 {
			item = w&0x7f | (w>>8&0x7f)<<7
			j += 2
		} else if w&0x800000 == 0 {
			item = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14
			j += 3
		} else if w&0x80000000 == 0 {
			item = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14 | (w>>24&0x7f)<<21
			j += 4
		} else if w&0x8000000000 == 0 {
			item = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14 | (w>>24&0x7f)<<21 | (w>>32&0x7f)<<28
			j += 5
		} else {
			goto careful
		}
		// core (zigzag varint, almost always 1 byte)
		if b0 = p[j]; b0 < 0x80 {
			cu = uint64(b0)
			j++
		} else if p[j+1] < 0x80 {
			cu = uint64(b0&0x7f) | uint64(p[j+1])<<7
			j += 2
		} else if cu, j = getUvarintSlow(p, j); j < 0 {
			goto careful
		}
		c = int64(cu>>1) ^ -int64(cu&1)
		if c < -1<<31 || c > 1<<31-1 {
			goto careful
		}
		// kind byte
		kd = trace.Kind(p[j])
		if kd != trace.ItemBegin && kd != trace.ItemEnd {
			goto careful
		}
		m.TSC = tsc
		m.Item = item
		m.Core = int32(c)
		m.Kind = kd
		prev = tsc
		i = j + 1
		k++
		n++
		continue
	careful:
		// Too near the end for the fast window, or an anomalous record:
		// re-decode from the record start through Next for exact
		// value/error parity with the careful path.
		it.i, it.prev, it.k = i, prev, k
		if !it.Next(&dst[n]) {
			return n
		}
		i, prev, k = it.i, it.prev, it.k
		n++
	}
	it.i, it.prev, it.k = i, prev, k
	return n
}

// Err returns the decode error, if any. After Next has returned false it
// also reports trailing garbage — a fully iterated payload must end
// exactly where its last record does, as in DecodeMarkers.
func (it *MarkerIter) Err() error {
	if it.err == nil && it.k == it.n && it.i != len(it.p) {
		it.err = errPayload(TMarkers, "%d trailing bytes", len(it.p)-it.i)
	}
	return it.err
}

// SampleIter is MarkerIter for a run of samples.
type SampleIter struct {
	p    []byte
	i    int
	n    uint64
	k    uint64
	prev uint64
	err  error
}

// IterSamples builds an iterator over a payload that is one sample run.
func IterSamples(payload []byte) SampleIter {
	it := SampleIter{p: payload}
	n, i := getUvarint(payload, 0)
	if i < 0 {
		it.err = errPayload(TSamples, "count: %w", errBadUvarint)
		return it
	}
	if n > MaxFrameBytes {
		it.err = errPayload(TSamples, "absurd count %d", n)
		return it
	}
	it.n, it.i = n, i
	return it
}

// Next decodes the next sample into *sm, returning false at the end of the
// payload or on a malformed record (check Err). Regs is set to nil, or to
// a fresh block when the record carries registers: a block the caller's
// struct pointed at before, which an earlier copy may share, is never
// written.
func (it *SampleIter) Next(sm *pmu.Sample) bool {
	if it.err != nil || it.k >= it.n {
		return false
	}
	p := it.p
	d, i := getVarint(p, it.i)
	if i < 0 {
		it.err = errPayload(TSamples, "sample %d tsc: %w", it.k, errBadVarint)
		return false
	}
	sm.TSC = it.prev + uint64(d)
	it.prev = sm.TSC
	ip, i := getUvarint(p, i)
	if i < 0 {
		it.err = errPayload(TSamples, "sample %d ip: %w", it.k, errBadUvarint)
		return false
	}
	sm.IP = ip
	c, i := getVarint(p, i)
	if i < 0 {
		it.err = errPayload(TSamples, "sample %d core: %w", it.k, errBadVarint)
		return false
	}
	if c < -1<<31 || c > 1<<31-1 {
		it.err = errPayload(TSamples, "sample %d core %d out of range", it.k, c)
		return false
	}
	sm.Core = int32(c)
	if uint(i+1) >= uint(len(p)) {
		it.err = errPayload(TSamples, "sample %d event/regs flag: truncated", it.k)
		return false
	}
	if pmu.Event(p[i]) >= pmu.NumEvents {
		it.err = errPayload(TSamples, "sample %d has invalid event %d", it.k, p[i])
		return false
	}
	sm.Event = pmu.Event(p[i])
	hasRegs := p[i+1]
	i += 2
	switch hasRegs {
	case 0:
		sm.Regs = nil
	case 1:
		rg := new([pmu.NumRegs]uint64)
		for j := range rg {
			rg[j], i = getUvarint(p, i)
			if i < 0 {
				it.err = errPayload(TSamples, "sample %d reg %d: %w", it.k, j, errBadUvarint)
				return false
			}
		}
		sm.Regs = rg
	default:
		it.err = errPayload(TSamples, "sample %d has invalid regs flag %d", it.k, hasRegs)
		return false
	}
	it.i = i
	it.k++
	return true
}

// NextBatch decodes up to len(dst) samples, returning how many it wrote;
// same contract and punt-to-Next anomaly handling as MarkerIter.NextBatch,
// and the same Regs rule as Next.
func (it *SampleIter) NextBatch(dst []pmu.Sample) int {
	if it.err != nil {
		return 0
	}
	p := it.p
	i, prev, k := it.i, it.prev, it.k
	n := 0
	for n < len(dst) && k < it.n {
		// Word-packed fast path: one 8-byte load covers ΔTSC (≤2 bytes in
		// a sorted batch) plus IP (≤5 bytes — it's a code address), parsed
		// by shifting the word instead of re-loading bytes — no per-byte
		// bounds checks. Wider encodings are rare (core-switch TSC jumps,
		// 36-bit+ addresses) and punt to the careful per-record path,
		// which handles every width.
		var (
			m              *pmu.Sample
			j, r           int
			u, ip, cu, tsc uint64
			w              uint64
			c              int64
			ev, hasRegs    byte
			b0             byte
			rg             *[pmu.NumRegs]uint64
		)
		if len(p)-i < maxSampleEnc {
			goto careful
		}
		m = &dst[n]
		w = binary.LittleEndian.Uint64(p[i:]) // single load; window guarantees 8 bytes
		j = i
		// ΔTSC (zigzag varint)
		if w&0x80 == 0 {
			u = w & 0x7f
			w >>= 8
			j++
		} else if w&0x8000 == 0 {
			u = w&0x7f | (w>>8&0x7f)<<7
			w >>= 16
			j += 2
		} else {
			goto careful
		}
		tsc = prev + uint64(int64(u>>1)^-int64(u&1))
		// IP (uvarint, ≤5 bytes in-word)
		if w&0x80 == 0 {
			ip = w & 0x7f
			j++
		} else if w&0x8000 == 0 {
			ip = w&0x7f | (w>>8&0x7f)<<7
			j += 2
		} else if w&0x800000 == 0 {
			ip = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14
			j += 3
		} else if w&0x80000000 == 0 {
			ip = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14 | (w>>24&0x7f)<<21
			j += 4
		} else if w&0x8000000000 == 0 {
			ip = w&0x7f | (w>>8&0x7f)<<7 | (w>>16&0x7f)<<14 | (w>>24&0x7f)<<21 | (w>>32&0x7f)<<28
			j += 5
		} else {
			goto careful
		}
		// core (zigzag varint, almost always 1 byte)
		if b0 = p[j]; b0 < 0x80 {
			cu = uint64(b0)
			j++
		} else if p[j+1] < 0x80 {
			cu = uint64(b0&0x7f) | uint64(p[j+1])<<7
			j += 2
		} else if cu, j = getUvarintSlow(p, j); j < 0 {
			goto careful
		}
		c = int64(cu>>1) ^ -int64(cu&1)
		if c < -1<<31 || c > 1<<31-1 {
			goto careful
		}
		// event + regs flag bytes
		ev = p[j]
		hasRegs = p[j+1]
		if pmu.Event(ev) >= pmu.NumEvents || hasRegs > 1 {
			goto careful
		}
		j += 2
		if hasRegs == 1 {
			rg = new([pmu.NumRegs]uint64)
			for r = 0; r < pmu.NumRegs; r++ {
				if b0 = p[j]; b0 < 0x80 {
					rg[r] = uint64(b0)
					j++
				} else if p[j+1] < 0x80 {
					rg[r] = uint64(b0&0x7f) | uint64(p[j+1])<<7
					j += 2
				} else if rg[r], j = getUvarintSlow(p, j); j < 0 {
					goto careful
				}
			}
		}
		m.Regs = rg
		m.TSC = tsc
		m.IP = ip
		m.Core = int32(c)
		m.Event = pmu.Event(ev)
		prev = tsc
		i = j
		k++
		n++
		continue
	careful:
		// Too near the end, or an anomalous record: re-decode from the
		// record start through Next for exact value/error parity.
		it.i, it.prev, it.k = i, prev, k
		if !it.Next(&dst[n]) {
			return n
		}
		i, prev, k = it.i, it.prev, it.k
		n++
	}
	it.i, it.prev, it.k = i, prev, k
	return n
}

// Err returns the decode error, if any, including the trailing-bytes check
// once iteration has completed.
func (it *SampleIter) Err() error {
	if it.err == nil && it.k == it.n && it.i != len(it.p) {
		it.err = errPayload(TSamples, "%d trailing bytes", len(it.p)-it.i)
	}
	return it.err
}
