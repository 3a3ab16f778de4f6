package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// Binary trace-set format (little endian):
//
//	magic   [8]byte  "FLCTRC01"
//	freq    uint64
//	nSyms   uint32   { nameLen uint16, name bytes, base uint64, size uint64 }*
//	nMark   uint32   { item uint64, tsc uint64, core int32, kind uint8 }*
//	nSamp   uint32   { tsc uint64, ip uint64, core int32, event uint8,
//	                   hasRegs uint8, [16]uint64 if hasRegs }*
//
// The prototype in the paper dumps both streams to SSD and integrates them
// later offline; this format is that dump. A marker (21 B), a sample head
// (22 B) and a register block (128 B) are fixed-layout records: Encode
// writes and the walker reads each one whole, and the field tables below
// tell a truncation error which field the file ended in.
var magic = [8]byte{'F', 'L', 'C', 'T', 'R', 'C', '0', '1'}

const (
	markerBytes     = 8 + 8 + 4 + 1
	sampleHeadBytes = 8 + 8 + 4 + 1 + 1
	regsBytes       = 8 * pmu.NumRegs
)

// field is one fixed-width field of a record.
type field struct {
	name string
	size int
}

var (
	symbolTailFields = []field{{"base", 8}, {"size", 8}}
	markerFields     = []field{{"item", 8}, {"tsc", 8}, {"core", 4}, {"kind", 1}}
	sampleHeadFields = []field{{"tsc", 8}, {"ip", 8}, {"core", 4}, {"event", 1}, {"regs flag", 1}}
)

// maxCount bounds each section when decoding untrusted input.
const maxCount = 1 << 28

// decodeChunk is the most records Decode allocates for on a header's word
// alone, when the reader cannot say how many bytes it holds; past it the
// destination doubles as records actually arrive.
const decodeChunk = 1 << 16

// Encode writes the set to w in the binary trace format.
func (s *Set) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	var rec [sampleHeadBytes + regsBytes]byte // the largest record
	copy(rec[:], magic[:])
	le.PutUint64(rec[8:], s.FreqHz)
	var syms []*symtab.Fn
	if s.Syms != nil {
		syms = s.Syms.Fns()
	}
	le.PutUint32(rec[16:], uint32(len(syms)))
	if _, err := bw.Write(rec[:20]); err != nil {
		return err
	}
	for _, f := range syms {
		if len(f.Name) > 0xffff {
			return fmt.Errorf("trace: symbol name too long (%d bytes)", len(f.Name))
		}
		le.PutUint16(rec[:], uint16(len(f.Name)))
		if _, err := bw.Write(rec[:2]); err != nil {
			return err
		}
		if _, err := bw.WriteString(f.Name); err != nil {
			return err
		}
		le.PutUint64(rec[:], f.Base)
		le.PutUint64(rec[8:], f.Size)
		if _, err := bw.Write(rec[:16]); err != nil {
			return err
		}
	}

	le.PutUint32(rec[:], uint32(len(s.Markers)))
	if _, err := bw.Write(rec[:4]); err != nil {
		return err
	}
	for i := range s.Markers {
		m := &s.Markers[i]
		le.PutUint64(rec[:], m.Item)
		le.PutUint64(rec[8:], m.TSC)
		le.PutUint32(rec[16:], uint32(m.Core))
		rec[20] = byte(m.Kind)
		if _, err := bw.Write(rec[:markerBytes]); err != nil {
			return err
		}
	}

	le.PutUint32(rec[:], uint32(len(s.Samples)))
	if _, err := bw.Write(rec[:4]); err != nil {
		return err
	}
	for i := range s.Samples {
		sm := &s.Samples[i]
		le.PutUint64(rec[:], sm.TSC)
		le.PutUint64(rec[8:], sm.IP)
		le.PutUint32(rec[16:], uint32(sm.Core))
		rec[20] = byte(sm.Event)
		rec[21] = 0 // hasRegs
		n := sampleHeadBytes
		if !pmu.RegsZero(sm.Regs) {
			rec[21] = 1
			for _, r := range sm.Regs {
				le.PutUint64(rec[n:], r)
				n += 8
			}
		}
		if _, err := bw.Write(rec[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a trace set in the binary format from r. When r can say how
// many bytes it holds — an *os.File on a regular file, or a reader with a
// Len method such as *bytes.Reader — each section whose declared count of
// its smallest record fits in them is allocated once, at that count.
func Decode(r io.Reader) (*Set, error) {
	sp := obs.StartSpan("trace.Decode")
	defer sp.End()
	var s Set
	if _, err := walk(r, &s, nil, nil, nil); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeStream reads a trace file incrementally, invoking onMarker and
// onSample per record instead of materializing the whole set — the
// file-backed path into a StreamIntegrator for traces too large to hold in
// memory. onSyms delivers the symbol table (possibly nil) before any
// events. A nil callback skips its stream: the records are still read and
// validated. A callback returning an error aborts the decode.
func DecodeStream(r io.Reader, onSyms func(*symtab.Table), onMarker func(Marker) error, onSample func(pmu.Sample) error) (freqHz uint64, err error) {
	return walk(r, nil, onSyms, onMarker, onSample)
}

// offsetReader tracks how many bytes of the trace file were consumed, so a
// truncated dump (a crashed writer, a torn copy, a cut transfer) reports
// *where* it ends — the difference between "file is damaged" and "file is
// damaged 3 bytes into sample 41817", which is what an operator needs to
// decide whether the prefix is worth salvaging.
type offsetReader struct {
	br  *bufio.Reader
	off int64
}

// full reads exactly len(buf) bytes, advancing the offset by the n that
// arrived.
func (o *offsetReader) full(buf []byte) (n int, err error) {
	n, err = io.ReadFull(o.br, buf)
	o.off += int64(n)
	return n, err
}

// fail decorates a read error with what was being read and, for truncation
// (clean EOF mid-structure or a short read), the byte offset where the file
// ended — normalized to wrap io.ErrUnexpectedEOF so callers can
// errors.Is(err, io.ErrUnexpectedEOF) regardless of which read hit the end.
func (o *offsetReader) fail(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: %s: truncated at byte %d: %w", what, o.off, io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("trace: %s: %w", what, err)
}

// short is fail for record i of a kind, read whole, of which only n bytes
// arrived: the label names the field the read ended in.
func (o *offsetReader) short(kind string, i uint32, fields []field, n int, err error) error {
	k := 0
	for n >= fields[k].size {
		n -= fields[k].size
		k++
	}
	return o.fail(fmt.Sprintf("%s %d %s", kind, i, fields[k].name), err)
}

// knownLen returns how many bytes r holds from its current position, or -1
// when it cannot say.
func knownLen(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		st, err := r.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return -1
		}
		pos, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return st.Size() - pos
	}
	return -1
}

// section returns an empty slice for a section of declared records of at
// least minBytes each, at capacity declared when the bytes still unread
// (avail, known at the start, less off read since; avail < 0: unknown)
// can back them all, else nil for next to grow. An empty section stays nil.
func section[T any](declared uint32, minBytes int, avail, off int64) []T {
	if declared == 0 || avail < 0 || int64(declared)*int64(minBytes) > avail-off {
		return nil
	}
	return make([]T, 0, declared)
}

// next extends s by one zero element toward the declared count. Capacity
// starts at min(declared, decodeChunk) and doubles up to declared: an honest
// file of up to decodeChunk records is sized once and exactly, and an absurd
// count cannot allocate far ahead of the bytes that back it.
func next[T any](s []T, declared uint32) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, min(max(2*cap(s), decodeChunk), int(declared))), s...)
	}
	return s[:len(s)+1]
}

// walk is the one reader of the format. With dst set, records are decoded
// in place into dst's slices; without, into a scratch record handed to
// onMarker / onSample (nil: skipped).
func walk(r io.Reader, dst *Set, onSyms func(*symtab.Table), onMarker func(Marker) error, onSample func(pmu.Sample) error) (freq uint64, err error) {
	avail := int64(-1)
	if dst != nil {
		avail = knownLen(r)
	}
	or := &offsetReader{br: bufio.NewReader(r)}
	le := binary.LittleEndian
	var rec [regsBytes]byte // the largest single read
	count := func(what string) (uint32, error) {
		if _, err := or.full(rec[:4]); err != nil {
			return 0, or.fail(what+" count", err)
		}
		n := le.Uint32(rec[:])
		if n > maxCount {
			return 0, fmt.Errorf("trace: absurd %s count %d", what, n)
		}
		return n, nil
	}

	if _, err := or.full(rec[:8]); err != nil {
		return 0, or.fail("magic", err)
	}
	if [8]byte(rec[:8]) != magic {
		return 0, fmt.Errorf("trace: bad magic %q", rec[:8])
	}
	if _, err := or.full(rec[:8]); err != nil {
		return 0, or.fail("freq", err)
	}
	if freq = le.Uint64(rec[:]); freq == 0 {
		return 0, fmt.Errorf("trace: zero TSC frequency")
	}

	nSyms, err := count("symbol")
	if err != nil {
		return freq, err
	}
	var syms *symtab.Table
	if nSyms > 0 {
		syms = symtab.NewTable()
	}
	for i := uint32(0); i < nSyms; i++ {
		if _, err := or.full(rec[:2]); err != nil {
			return freq, or.fail(fmt.Sprintf("symbol %d name length", i), err)
		}
		name := make([]byte, le.Uint16(rec[:]))
		if _, err := or.full(name); err != nil {
			return freq, or.fail(fmt.Sprintf("symbol %d name", i), err)
		}
		if n, err := or.full(rec[:16]); err != nil {
			return freq, or.short("symbol", i, symbolTailFields, n, err)
		}
		base, size := le.Uint64(rec[:]), le.Uint64(rec[8:])
		// Registration re-derives addresses; verify the decoded layout
		// matches so Resolve behaves identically to the original table.
		f, rerr := syms.Register(string(name), size)
		if rerr != nil {
			return freq, fmt.Errorf("trace: symbol %d: %w", i, rerr)
		}
		if f.Base != base {
			return freq, fmt.Errorf("trace: symbol %q base mismatch: file %#x, table %#x", name, base, f.Base)
		}
	}
	if dst != nil {
		dst.FreqHz, dst.Syms = freq, syms
	}
	if onSyms != nil {
		onSyms(syms)
	}

	nMark, err := count("marker")
	if err != nil {
		return freq, err
	}
	if dst != nil {
		dst.Markers = section[Marker](nMark, markerBytes, avail, or.off)
	}
	for i := uint32(0); i < nMark; i++ {
		var scratch Marker
		mk := &scratch
		if dst != nil {
			dst.Markers = next(dst.Markers, nMark)
			mk = &dst.Markers[i]
		}
		if n, err := or.full(rec[:markerBytes]); err != nil {
			return freq, or.short("marker", i, markerFields, n, err)
		}
		mk.Item, mk.TSC, mk.Core, mk.Kind = le.Uint64(rec[:]), le.Uint64(rec[8:]), int32(le.Uint32(rec[16:])), Kind(rec[20])
		if mk.Kind != ItemBegin && mk.Kind != ItemEnd {
			return freq, fmt.Errorf("trace: marker %d has invalid kind %d", i, rec[20])
		}
		if onMarker != nil {
			if err := onMarker(*mk); err != nil {
				return freq, err
			}
		}
	}

	nSamp, err := count("sample")
	if err != nil {
		return freq, err
	}
	if dst != nil {
		dst.Samples = section[pmu.Sample](nSamp, sampleHeadBytes, avail, or.off)
	}
	var scratch pmu.Sample
	for i := uint32(0); i < nSamp; i++ {
		sm := &scratch
		if dst != nil {
			dst.Samples = next(dst.Samples, nSamp)
			sm = &dst.Samples[i]
		}
		n, err := or.full(rec[:sampleHeadBytes])
		// The event is judged before the regs flag is read: a file that ends
		// between the two reports the bad event, not the truncation.
		if n > 20 && pmu.Event(rec[20]) >= pmu.NumEvents {
			return freq, fmt.Errorf("trace: sample %d has invalid event %d", i, rec[20])
		}
		if err != nil {
			return freq, or.short("sample", i, sampleHeadFields, n, err)
		}
		sm.TSC, sm.IP, sm.Core, sm.Event = le.Uint64(rec[:]), le.Uint64(rec[8:]), int32(le.Uint32(rec[16:])), pmu.Event(rec[20])
		switch hasRegs := rec[21]; hasRegs {
		case 0:
			sm.Regs = nil
		case 1:
			if n, err := or.full(rec[:regsBytes]); err != nil {
				return freq, or.fail(fmt.Sprintf("sample %d reg %d", i, n/8), err)
			}
			// A fresh block: the one a previous record left in the
			// scratch may be held by the callback.
			rg := new([pmu.NumRegs]uint64)
			for j := range rg {
				rg[j] = le.Uint64(rec[8*j:])
			}
			sm.Regs = rg
		default:
			return freq, fmt.Errorf("trace: sample %d has invalid regs flag %d", i, hasRegs)
		}
		if onSample != nil {
			if err := onSample(*sm); err != nil {
				return freq, err
			}
		}
	}
	return freq, nil
}
