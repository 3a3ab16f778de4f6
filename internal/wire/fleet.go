package wire

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/core"
	"repro/internal/symtab"
)

// Fleet-summary payload: the collector→aggregator hop of the two-tier
// topology. A shard collector owns the sources that consistent-hash to it
// and integrates their streams exactly as a single-tier collector would;
// every time one of its sources finishes a set, the shard forwards that
// source's refreshed fleet row — summary counters plus the completed set's
// items — to the global aggregator as one TFleetSummary frame. The hop
// reuses the seq/ack + spool machinery verbatim (a summary frame is
// just a data frame to the sequencing layer), so shard restarts replay
// unacknowledged summaries and the aggregator deduplicates by
// (shard, epoch, seq) — no new protocol, only a new payload type.
//
// The payload carries everything the aggregator needs to rebuild the
// source's row in a merged fleet view byte-identically to a single
// collector that integrated the source directly: the summary counters
// (already cumulative on the shard), the TSC frequency (top-K compares in
// microseconds, so cycles must convert on the host that knows the clock),
// and the last completed set's items with their per-function spans. The
// function spans reference symbols; those are carried once, in a per-frame
// dictionary, and items refer to dictionary indices.

// FleetSummary is one source's row as shipped shard → aggregator.
type FleetSummary struct {
	// Source is the originating worker's ID (not the shard's — the shard
	// is the wire-level source of the uplink connection carrying this).
	Source string
	// FreqHz is the source's TSC frequency.
	FreqHz uint64
	// Sets and AbortedSets count complete and mid-set-abandoned deliveries
	// at the shard, cumulatively.
	Sets, AbortedSets uint64
	// LostMarkers/LostSamples are the shard's cumulative transport-loss
	// counts for this source.
	LostMarkers, LostSamples uint64
	// CRCErrors and Disconnects count cumulative link damage seen by the
	// shard on this source's connections.
	CRCErrors, Disconnects uint64
	// MeanConf is the mean item confidence of the last completed set.
	MeanConf float64
	// Degraded reports the shard's verdict on the last completed set.
	Degraded bool
	// GapLine is the last set's one-line GapSummary verdict.
	GapLine string
	// Items is the last completed set's reconstruction.
	Items []core.Item
}

// maxGapLine bounds the gap-verdict string when decoding untrusted input.
const maxGapLine = 1 << 12

// AppendFleetSummary appends a TFleetSummary payload: header fields, a
// function dictionary (every symbol referenced by the items, in first-
// appearance order), then the items with spans referencing the dictionary.
func AppendFleetSummary(dst []byte, fs FleetSummary) ([]byte, error) {
	if len(fs.Source) == 0 || len(fs.Source) > 255 {
		return nil, errPayload(TFleetSummary, "source ID must be 1–255 bytes, got %d", len(fs.Source))
	}
	if len(fs.GapLine) > maxGapLine {
		return nil, errPayload(TFleetSummary, "gap line too long (%d bytes)", len(fs.GapLine))
	}
	dst = append(dst, byte(len(fs.Source)))
	dst = append(dst, fs.Source...)
	dst = binary.AppendUvarint(dst, fs.FreqHz)
	dst = binary.AppendUvarint(dst, fs.Sets)
	dst = binary.AppendUvarint(dst, fs.AbortedSets)
	dst = binary.AppendUvarint(dst, fs.LostMarkers)
	dst = binary.AppendUvarint(dst, fs.LostSamples)
	dst = binary.AppendUvarint(dst, fs.CRCErrors)
	dst = binary.AppendUvarint(dst, fs.Disconnects)
	if !(fs.MeanConf >= 0 && fs.MeanConf <= 1) {
		return nil, errPayload(TFleetSummary, "mean confidence %v outside [0,1]", fs.MeanConf)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fs.MeanConf))
	if fs.Degraded {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(fs.GapLine)))
	dst = append(dst, fs.GapLine...)

	// Function dictionary, keyed by pointer: within one source's set every
	// span resolves against one symbol table, so pointer identity is
	// symbol identity.
	fnIdx := map[*symtab.Fn]int{}
	var fns []*symtab.Fn
	for i := range fs.Items {
		for _, sp := range fs.Items[i].Funcs {
			if sp.Fn == nil {
				return nil, errPayload(TFleetSummary, "item %d has a span with nil function", i)
			}
			if _, ok := fnIdx[sp.Fn]; !ok {
				fnIdx[sp.Fn] = len(fns)
				fns = append(fns, sp.Fn)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(fns)))
	for _, f := range fns {
		if len(f.Name) > 0xffff {
			return nil, errPayload(TFleetSummary, "symbol name too long (%d bytes)", len(f.Name))
		}
		if f.ID < 0 {
			return nil, errPayload(TFleetSummary, "symbol %q has negative ID %d", f.Name, f.ID)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.AppendUvarint(dst, f.Base)
		dst = binary.AppendUvarint(dst, f.Size)
		dst = binary.AppendUvarint(dst, uint64(f.ID))
	}

	dst = binary.AppendUvarint(dst, uint64(len(fs.Items)))
	for i := range fs.Items {
		it := &fs.Items[i]
		if it.SampleCount < 0 || it.UnresolvedSamples < 0 {
			return nil, errPayload(TFleetSummary, "item %d has negative sample counts", i)
		}
		if !(it.Confidence >= 0 && it.Confidence <= 1) {
			return nil, errPayload(TFleetSummary, "item %d confidence %v outside [0,1]", i, it.Confidence)
		}
		dst = binary.AppendUvarint(dst, it.ID)
		dst = binary.AppendVarint(dst, int64(it.Core))
		dst = binary.AppendUvarint(dst, it.BeginTSC)
		dst = binary.AppendUvarint(dst, it.EndTSC)
		dst = binary.AppendUvarint(dst, uint64(it.SampleCount))
		dst = binary.AppendUvarint(dst, uint64(it.UnresolvedSamples))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(it.Confidence))
		dst = binary.AppendUvarint(dst, uint64(len(it.Funcs)))
		for _, sp := range it.Funcs {
			if sp.Samples < 0 {
				return nil, errPayload(TFleetSummary, "item %d has a span with negative samples", i)
			}
			dst = binary.AppendUvarint(dst, uint64(fnIdx[sp.Fn]))
			dst = binary.AppendUvarint(dst, uint64(sp.Samples))
			dst = binary.AppendUvarint(dst, sp.FirstTSC)
			dst = binary.AppendUvarint(dst, sp.LastTSC)
		}
	}
	return dst, nil
}

// DecodeFleetSummary parses a TFleetSummary payload. Corrupt or truncated
// input returns an error, never panics, and never allocates proportional
// to a declared count the remaining bytes cannot possibly hold.
func DecodeFleetSummary(p []byte) (FleetSummary, error) {
	fs, _, err := walkFleetSummary(p, true)
	return fs, err
}

// CheckFleetSummary validates a TFleetSummary payload and returns its
// header, with Items nil, and its item count. It accepts exactly the
// payloads DecodeFleetSummary accepts, but builds no symbol, item or span:
// a receiver that keeps the payload and decodes it later pays nothing per
// item to admit it.
func CheckFleetSummary(p []byte) (FleetSummary, int, error) {
	return walkFleetSummary(p, false)
}

// walkFleetSummary is the one parse of a TFleetSummary payload, and the one
// statement of its grammar and bounds. With build false every field is read
// and checked as with build true, but into scratch: the dictionary, the
// items and their span slabs are never allocated.
func walkFleetSummary(p []byte, build bool) (FleetSummary, int, error) {
	var fs FleetSummary
	if len(p) < 1 {
		return fs, 0, errPayload(TFleetSummary, "empty payload")
	}
	srcLen := int(p[0])
	p = p[1:]
	if srcLen == 0 || len(p) < srcLen {
		return fs, 0, errPayload(TFleetSummary, "truncated source ID")
	}
	fs.Source = string(p[:srcLen])
	p = p[srcLen:]

	var err error
	for _, field := range []*uint64{&fs.FreqHz, &fs.Sets, &fs.AbortedSets,
		&fs.LostMarkers, &fs.LostSamples, &fs.CRCErrors, &fs.Disconnects} {
		if *field, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "header: %w", err)
		}
	}
	if fs.FreqHz == 0 {
		return fs, 0, errPayload(TFleetSummary, "zero TSC frequency")
	}
	if len(p) < 9 {
		return fs, 0, errPayload(TFleetSummary, "truncated confidence/degraded")
	}
	fs.MeanConf = math.Float64frombits(binary.LittleEndian.Uint64(p))
	if !(fs.MeanConf >= 0 && fs.MeanConf <= 1) {
		return fs, 0, errPayload(TFleetSummary, "mean confidence %v outside [0,1]", fs.MeanConf)
	}
	switch p[8] {
	case 0:
		fs.Degraded = false
	case 1:
		fs.Degraded = true
	default:
		return fs, 0, errPayload(TFleetSummary, "invalid degraded flag %d", p[8])
	}
	p = p[9:]
	if len(p) < 2 {
		return fs, 0, errPayload(TFleetSummary, "truncated gap line")
	}
	gapLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if gapLen > maxGapLine || len(p) < gapLen {
		return fs, 0, errPayload(TFleetSummary, "truncated gap line (%d declared)", gapLen)
	}
	fs.GapLine = string(p[:gapLen])
	p = p[gapLen:]

	nFns, p, err := uvarint(p)
	if err != nil {
		return fs, 0, errPayload(TFleetSummary, "symbol count: %w", err)
	}
	// Each dictionary entry costs ≥ 5 bytes; each item ≥ 14; each span
	// ≥ 4. Checking the declared counts against the remaining bytes keeps
	// a corrupt count from allocating gigabytes before the parse fails.
	if nFns > uint64(len(p))/5 {
		return fs, 0, errPayload(TFleetSummary, "absurd symbol count %d", nFns)
	}
	var fns []*symtab.Fn
	if build {
		fns = make([]*symtab.Fn, nFns)
	}
	for i := 0; i < int(nFns); i++ {
		if len(p) < 2 {
			return fs, 0, errPayload(TFleetSummary, "symbol %d: truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen {
			return fs, 0, errPayload(TFleetSummary, "symbol %d: truncated name", i)
		}
		name := p[:nameLen]
		p = p[nameLen:]
		var base, size, id uint64
		if base, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "symbol %d base: %w", i, err)
		}
		if size, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "symbol %d size: %w", i, err)
		}
		if id, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "symbol %d id: %w", i, err)
		}
		if id > 1<<31 {
			return fs, 0, errPayload(TFleetSummary, "symbol %d id %d out of range", i, id)
		}
		if build {
			fns[i] = &symtab.Fn{Name: string(name), Base: base, Size: size, ID: int(id)}
		}
	}

	nItems, p, err := uvarint(p)
	if err != nil {
		return fs, 0, errPayload(TFleetSummary, "item count: %w", err)
	}
	if nItems > uint64(len(p))/14 {
		return fs, 0, errPayload(TFleetSummary, "absurd item count %d", nItems)
	}
	// Every item's Funcs is carved from a slab sized by a pre-pass that
	// counts the spans the items declare. The runtime rounds an object past
	// 32 KiB up to whole 8 KiB pages, so a large slab holds only the spans
	// that fill whole pages, and the items past its end carve a second,
	// small slab sized to what is left.
	var left int
	var slab []core.FuncSpan
	if build {
		fs.Items = make([]core.Item, nItems)
		left = spanTotal(p, nItems)
		slab = make([]core.FuncSpan, wholePageSpans(left))
	}
	// Without build, each item and span is read into these and dropped.
	var scratch core.Item
	var scratchSpan core.FuncSpan
	for i := 0; i < int(nItems); i++ {
		it := &scratch
		if build {
			it = &fs.Items[i]
		}
		if it.ID, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d id: %w", i, err)
		}
		var c int64
		if c, p, err = varint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d core: %w", i, err)
		}
		if c < -1<<31 || c > 1<<31-1 {
			return fs, 0, errPayload(TFleetSummary, "item %d core %d out of range", i, c)
		}
		it.Core = int32(c)
		if it.BeginTSC, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d begin: %w", i, err)
		}
		if it.EndTSC, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d end: %w", i, err)
		}
		var sc, un uint64
		if sc, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d samples: %w", i, err)
		}
		if un, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d unresolved: %w", i, err)
		}
		if sc > 1<<40 || un > sc {
			return fs, 0, errPayload(TFleetSummary, "item %d sample counts %d/%d implausible", i, un, sc)
		}
		it.SampleCount, it.UnresolvedSamples = int(sc), int(un)
		if len(p) < 8 {
			return fs, 0, errPayload(TFleetSummary, "item %d: truncated confidence", i)
		}
		it.Confidence = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		if !(it.Confidence >= 0 && it.Confidence <= 1) {
			return fs, 0, errPayload(TFleetSummary, "item %d confidence %v outside [0,1]", i, it.Confidence)
		}
		var nSpans uint64
		if nSpans, p, err = uvarint(p); err != nil {
			return fs, 0, errPayload(TFleetSummary, "item %d span count: %w", i, err)
		}
		if nSpans > uint64(len(p))/4 {
			return fs, 0, errPayload(TFleetSummary, "item %d: absurd span count %d", i, nSpans)
		}
		if build && nSpans > 0 {
			if nSpans > uint64(left) {
				return fs, 0, errPayload(TFleetSummary, "item %d: span count %d past the %d counted", i, nSpans, left)
			}
			if nSpans > uint64(len(slab)) {
				slab = make([]core.FuncSpan, left)
			}
			// Capped, so an append to one item's Funcs cannot overwrite
			// the next item's.
			it.Funcs, slab = slab[:nSpans:nSpans], slab[nSpans:]
			left -= int(nSpans)
		}
		for j := 0; j < int(nSpans); j++ {
			sp := &scratchSpan
			if build {
				sp = &it.Funcs[j]
			}
			var idx, samples uint64
			if idx, p, err = uvarint(p); err != nil {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d fn: %w", i, j, err)
			}
			if idx >= nFns {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d references symbol %d of %d", i, j, idx, nFns)
			}
			if build {
				sp.Fn = fns[idx]
			}
			if samples, p, err = uvarint(p); err != nil {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d samples: %w", i, j, err)
			}
			if samples > 1<<40 {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d samples %d implausible", i, j, samples)
			}
			sp.Samples = int(samples)
			if sp.FirstTSC, p, err = uvarint(p); err != nil {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d first: %w", i, j, err)
			}
			if sp.LastTSC, p, err = uvarint(p); err != nil {
				return fs, 0, errPayload(TFleetSummary, "item %d span %d last: %w", i, j, err)
			}
		}
	}
	if len(p) != 0 {
		return fs, 0, errPayload(TFleetSummary, "%d trailing bytes", len(p))
	}
	return fs, int(nItems), nil
}

// spanTotal counts the spans declared by the nItems items at the head of p,
// stopping at the first item it cannot read: the decode that follows reports
// that error. Each span takes at least four bytes, so the count never
// exceeds len(p)/4, whatever the counts declare.
func spanTotal(p []byte, nItems uint64) int {
	total := 0
	for i := uint64(0); i < nItems; i++ {
		// ID, core, begin, end, samples, unresolved; then the confidence.
		if p = skipVarints(p, 6); len(p) < 8 {
			break
		}
		n, q, err := uvarint(p[8:])
		if err != nil || n > uint64(len(q))/4 {
			break
		}
		total += int(n)
		// Each span is four varints: symbol, samples, first, last.
		p = skipVarints(q, 4*int(n))
	}
	return total
}

// spanBytes is the size of a core.FuncSpan: a pointer and three 8-byte
// integers.
const spanBytes = 32

// wholePageSpans is how many of n spans a first slab takes: all of them when
// they fit a small object, else as many as fill whole 8 KiB pages.
func wholePageSpans(n int) int {
	if n*spanBytes <= 32<<10 {
		return n
	}
	return n * spanBytes &^ (8<<10 - 1) / spanBytes
}

// skipVarints returns p past its first n varints, or nil when p ends first.
func skipVarints(p []byte, n int) []byte {
	i := 0
	// Eight bytes at a time while the word holds fewer varint ends (bytes
	// with the high bit clear) than are left to skip.
	for ; i+8 <= len(p); i += 8 {
		ends := bits.OnesCount64(^binary.LittleEndian.Uint64(p[i:]) & 0x8080808080808080)
		if ends >= n {
			break
		}
		n -= ends
	}
	for ; n > 0 && i < len(p); i++ {
		n -= int(p[i]>>7 ^ 1) // a varint's last byte has the high bit clear
	}
	if n > 0 {
		return nil
	}
	return p[i:]
}
