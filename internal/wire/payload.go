package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// Record payload layouts. These mirror the trace.Encode record layouts —
// the same fields in the same order — with one transport change:
// timestamps are signed-varint deltas against the previous record in the
// frame (the first record deltas against zero). Batches arrive in per-core
// drain order, so consecutive deltas are small and usually positive; the
// signed form keeps a core switch (TSC jumping backwards to another core's
// clock) from exploding into a 10-byte varint wraparound.

// ErrPayload reports a payload that could not be interpreted. It wraps the
// specific cause.
func errPayload(kind Type, format string, args ...any) error {
	return fmt.Errorf("wire: %s payload: "+format, append([]any{kind}, args...)...)
}

// AppendSymtab appends a TSymtab payload: the trace set's TSC frequency
// and its symbol table in the trace.Encode symbol-section layout
// (count, then {nameLen, name, base, size} per function).
func AppendSymtab(dst []byte, freqHz uint64, t *symtab.Table) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, freqHz)
	var fns []*symtab.Fn
	if t != nil {
		fns = t.Fns()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fns)))
	for _, f := range fns {
		if len(f.Name) > 0xffff {
			return nil, fmt.Errorf("wire: symbol name too long (%d bytes)", len(f.Name))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.LittleEndian.AppendUint64(dst, f.Base)
		dst = binary.LittleEndian.AppendUint64(dst, f.Size)
	}
	return dst, nil
}

// DecodeSymtab parses a TSymtab payload into a freshly built table. As in
// trace.Decode, registration re-derives each base address and the decoded
// one must match, so Resolve on the rebuilt table behaves identically.
func DecodeSymtab(p []byte) (freqHz uint64, t *symtab.Table, err error) {
	if len(p) < 12 {
		return 0, nil, errPayload(TSymtab, "short header (%d bytes)", len(p))
	}
	freqHz = binary.LittleEndian.Uint64(p)
	if freqHz == 0 {
		return 0, nil, errPayload(TSymtab, "zero TSC frequency")
	}
	n := binary.LittleEndian.Uint32(p[8:])
	p = p[12:]
	t = symtab.NewTable()
	for i := uint32(0); i < n; i++ {
		if len(p) < 2 {
			return 0, nil, errPayload(TSymtab, "symbol %d: truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen+16 {
			return 0, nil, errPayload(TSymtab, "symbol %d: truncated", i)
		}
		name := string(p[:nameLen])
		base := binary.LittleEndian.Uint64(p[nameLen:])
		size := binary.LittleEndian.Uint64(p[nameLen+8:])
		p = p[nameLen+16:]
		f, rerr := t.Register(name, size)
		if rerr != nil {
			return 0, nil, errPayload(TSymtab, "symbol %d: %w", i, rerr)
		}
		if f.Base != base {
			return 0, nil, errPayload(TSymtab, "symbol %q base mismatch: frame %#x, table %#x", name, base, f.Base)
		}
	}
	if len(p) != 0 {
		return 0, nil, errPayload(TSymtab, "%d trailing bytes", len(p))
	}
	return freqHz, t, nil
}

// Worst-case encoded record sizes. The index-based encoders reserve one
// record's worst case before emitting it, so the per-field stores need no
// growth checks of their own.
const (
	maxMarkerEnc = 10 + 10 + 10 + 1                      // ΔTSC, item, core, kind
	maxSampleEnc = 10 + 10 + 10 + 1 + 1 + 10*pmu.NumRegs // ΔTSC, ip, core, event, flag, regs
)

// encReserve guarantees at least need writable bytes past j, growing the
// buffer if it must, and returns the buffer re-sliced to full capacity.
func encReserve(b []byte, j, need int) []byte {
	if len(b)-j >= need {
		return b
	}
	grown := append(b[:j], make([]byte, need)...)
	return grown[:cap(grown)]
}

// AppendMarkers appends a marker run body: a count followed by
// {ΔTSC varint, item uvarint, core varint, kind byte} per marker, the first
// ΔTSC against zero.
func AppendMarkers(dst []byte, ms []trace.Marker) []byte { return appendMarkers(dst, 0, ms) }

// appendMarkers is AppendMarkers with the first ΔTSC taken against prev.
//
// The record loop writes by index into reserved capacity rather than
// appending field-by-field: one headroom check per record, then plain
// stores. This is the shipper's hot encode loop; see varint.go for why the
// varint emit is hand-unrolled.
func appendMarkers(dst []byte, prev uint64, ms []trace.Marker) []byte {
	dst = appendUvarint(dst, uint64(len(ms)))
	j := len(dst)
	b := dst[:cap(dst)]
	for i := range ms {
		b = encReserve(b, j, maxMarkerEnc)
		m := &ms[i]
		// Word-compose ΔTSC (≤2 bytes sorted-batch typical) + item
		// (≤5 bytes) in a register and store once — one 8-byte store with
		// one bounds check instead of per-byte appends. Wider values take
		// the generic emit.
		d := zigzag(int64(m.TSC - prev))
		prev = m.TSC
		if item := m.Item; d < 1<<14 && item < 1<<35 {
			var w uint64
			var wl int
			if d < 1<<7 {
				w, wl = d, 1
			} else {
				w, wl = d&0x7f|0x80|(d>>7)<<8, 2
			}
			var iw uint64
			var il int
			switch {
			case item < 1<<7:
				iw, il = item, 1
			case item < 1<<14:
				iw, il = item&0x7f|0x80|(item>>7)<<8, 2
			case item < 1<<21:
				iw, il = item&0x7f|0x80|(item>>7&0x7f|0x80)<<8|(item>>14)<<16, 3
			case item < 1<<28:
				iw, il = item&0x7f|0x80|(item>>7&0x7f|0x80)<<8|(item>>14&0x7f|0x80)<<16|(item>>21)<<24, 4
			default:
				iw, il = item&0x7f|0x80|(item>>7&0x7f|0x80)<<8|(item>>14&0x7f|0x80)<<16|(item>>21&0x7f|0x80)<<24|(item>>28)<<32, 5
			}
			binary.LittleEndian.PutUint64(b[j:], w|iw<<(8*uint(wl)))
			j += wl + il
		} else {
			j = putUvarint(b, j, d)
			j = putUvarint(b, j, m.Item)
		}
		if u := zigzag(int64(m.Core)); u < 1<<7 {
			b[j] = byte(u)
			j++
		} else if u < 1<<14 {
			b[j] = byte(u) | 0x80
			b[j+1] = byte(u >> 7)
			j += 2
		} else {
			j = putUvarintWide(b, j, u)
		}
		b[j] = byte(m.Kind)
		j++
	}
	return b[:j]
}

// AppendSamples appends a sample run body: a count followed by
// {ΔTSC varint, ip uvarint, core varint, event byte, hasRegs byte,
// [16]uvarint regs when hasRegs} per sample — the trace.Encode sample
// layout with delta timestamps (the first against zero) and varint fields.
func AppendSamples(dst []byte, ss []pmu.Sample) []byte { return appendSamples(dst, 0, ss) }

// appendSamples is AppendSamples with the first ΔTSC taken against prev.
func appendSamples(dst []byte, prev uint64, ss []pmu.Sample) []byte {
	dst = appendUvarint(dst, uint64(len(ss)))
	j := len(dst)
	b := dst[:cap(dst)]
	for i := range ss {
		b = encReserve(b, j, maxSampleEnc)
		sm := &ss[i]
		// Word-compose ΔTSC (≤2 bytes) + IP (a code address — 3-5 bytes
		// typical) and store once, as in AppendMarkers.
		d := zigzag(int64(sm.TSC - prev))
		prev = sm.TSC
		if ip := sm.IP; d < 1<<14 && ip < 1<<35 {
			var w uint64
			var wl int
			if d < 1<<7 {
				w, wl = d, 1
			} else {
				w, wl = d&0x7f|0x80|(d>>7)<<8, 2
			}
			var iw uint64
			var il int
			switch {
			case ip < 1<<7:
				iw, il = ip, 1
			case ip < 1<<14:
				iw, il = ip&0x7f|0x80|(ip>>7)<<8, 2
			case ip < 1<<21:
				iw, il = ip&0x7f|0x80|(ip>>7&0x7f|0x80)<<8|(ip>>14)<<16, 3
			case ip < 1<<28:
				iw, il = ip&0x7f|0x80|(ip>>7&0x7f|0x80)<<8|(ip>>14&0x7f|0x80)<<16|(ip>>21)<<24, 4
			default:
				iw, il = ip&0x7f|0x80|(ip>>7&0x7f|0x80)<<8|(ip>>14&0x7f|0x80)<<16|(ip>>21&0x7f|0x80)<<24|(ip>>28)<<32, 5
			}
			binary.LittleEndian.PutUint64(b[j:], w|iw<<(8*uint(wl)))
			j += wl + il
		} else {
			j = putUvarint(b, j, d)
			j = putUvarint(b, j, sm.IP)
		}
		if u := zigzag(int64(sm.Core)); u < 1<<7 {
			b[j] = byte(u)
			j++
		} else if u < 1<<14 {
			b[j] = byte(u) | 0x80
			b[j+1] = byte(u >> 7)
			j += 2
		} else {
			j = putUvarintWide(b, j, u)
		}
		b[j] = byte(sm.Event)
		hasRegs := byte(0)
		if !pmu.RegsZero(sm.Regs) {
			hasRegs = 1
		}
		b[j+1] = hasRegs
		j += 2
		if hasRegs == 1 {
			for _, r := range sm.Regs {
				if r < 1<<7 {
					b[j] = byte(r)
					j++
				} else if r < 1<<14 {
					b[j] = byte(r) | 0x80
					b[j+1] = byte(r >> 7)
					j += 2
				} else {
					j = putUvarintWide(b, j, r)
				}
			}
		}
	}
	return b[:j]
}

// SetEnd declares a finished trace set: how many markers and samples the
// shipper put on the wire for it. The collector compares against what it
// received — a shortfall is transport loss, to be surfaced, not hidden.
type SetEnd struct {
	Markers uint64
	Samples uint64
}

// AppendSetEnd appends a TSetEnd payload.
func AppendSetEnd(dst []byte, e SetEnd) []byte {
	dst = binary.AppendUvarint(dst, e.Markers)
	return binary.AppendUvarint(dst, e.Samples)
}

// DecodeSetEnd parses a TSetEnd payload.
func DecodeSetEnd(p []byte) (SetEnd, error) {
	var e SetEnd
	var err error
	e.Markers, p, err = uvarint(p)
	if err != nil {
		return SetEnd{}, errPayload(TSetEnd, "markers: %w", err)
	}
	e.Samples, p, err = uvarint(p)
	if err != nil {
		return SetEnd{}, errPayload(TSetEnd, "samples: %w", err)
	}
	if len(p) != 0 {
		return SetEnd{}, errPayload(TSetEnd, "%d trailing bytes", len(p))
	}
	return e, nil
}

// uvarint consumes one unsigned varint from p.
func uvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, p[n:], nil
}

// varint consumes one signed varint from p.
func varint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, p[n:], nil
}
