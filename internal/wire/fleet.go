package wire

import (
	"encoding/binary"
	"math"

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
// to a declared count the remaining bytes cannot possibly hold. A first,
// checking walk counts the items and spans, so the items and one span slab
// are each allocated once at their final size; every item's Funcs is a
// capped view into the slab, nil when it has no span.
func DecodeFleetSummary(p []byte) (FleetSummary, error) {
	fs, n, spans, err := WalkFleetSummary(p, nil)
	if err != nil {
		return fs, err
	}
	fs.Items = make([]core.Item, 0, n)
	slab := make([]core.FuncSpan, spans)
	_, _, _, err = WalkFleetSummary(p, func(_ uint64, it core.Item) {
		if k := copy(slab, it.Funcs); k > 0 {
			it.Funcs, slab = slab[:k:k], slab[k:]
		}
		fs.Items = append(fs.Items, it)
	})
	return fs, err
}

// CheckFleetSummary validates a TFleetSummary payload and returns its
// header, with Items nil, and its item count. It accepts exactly the
// payloads DecodeFleetSummary accepts, but builds no symbol, item or span:
// a receiver that keeps the payload and decodes it later pays nothing per
// item to admit it.
func CheckFleetSummary(p []byte) (FleetSummary, int, error) {
	fs, n, _, err := WalkFleetSummary(p, nil)
	return fs, n, err
}

// WalkFleetSummary is the one parse of a TFleetSummary payload, and the one
// statement of its grammar and bounds. It returns the header, with Items
// nil, and the item and span counts. With each nil it checks every field
// and builds nothing; otherwise it also builds the function dictionary and
// calls each with the payload's TSC frequency and every item in payload
// order. The item's Funcs (nil when it has no span) is scratch that the
// walk reuses: a visitor that keeps an item copies its spans. A payload
// that fails the walk may have shown each some of its items first.
func WalkFleetSummary(p []byte, each func(freqHz uint64, it core.Item)) (fs FleetSummary, items, spans int, err error) {
	fail := func(format string, args ...any) (FleetSummary, int, int, error) {
		return fs, 0, 0, errPayload(TFleetSummary, format, args...)
	}
	if len(p) < 1 {
		return fail("empty payload")
	}
	srcLen := int(p[0])
	p = p[1:]
	if srcLen == 0 || len(p) < srcLen {
		return fail("truncated source ID")
	}
	fs.Source = string(p[:srcLen])
	p = p[srcLen:]

	for _, field := range []*uint64{&fs.FreqHz, &fs.Sets, &fs.AbortedSets,
		&fs.LostMarkers, &fs.LostSamples, &fs.CRCErrors, &fs.Disconnects} {
		if *field, p, err = uvarint(p); err != nil {
			return fail("header: %w", err)
		}
	}
	if fs.FreqHz == 0 {
		return fail("zero TSC frequency")
	}
	if len(p) < 9 {
		return fail("truncated confidence/degraded")
	}
	fs.MeanConf = math.Float64frombits(binary.LittleEndian.Uint64(p))
	if !(fs.MeanConf >= 0 && fs.MeanConf <= 1) {
		return fail("mean confidence %v outside [0,1]", fs.MeanConf)
	}
	switch p[8] {
	case 0:
		fs.Degraded = false
	case 1:
		fs.Degraded = true
	default:
		return fail("invalid degraded flag %d", p[8])
	}
	p = p[9:]
	if len(p) < 2 {
		return fail("truncated gap line")
	}
	gapLen := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if gapLen > maxGapLine || len(p) < gapLen {
		return fail("truncated gap line (%d declared)", gapLen)
	}
	fs.GapLine = string(p[:gapLen])
	p = p[gapLen:]

	nFns, p, err := uvarint(p)
	if err != nil {
		return fail("symbol count: %w", err)
	}
	// Each dictionary entry costs ≥ 5 bytes; each item ≥ 14; each span
	// ≥ 4. Checking the declared counts against the remaining bytes keeps
	// a corrupt count from allocating gigabytes before the parse fails.
	if nFns > uint64(len(p))/5 {
		return fail("absurd symbol count %d", nFns)
	}
	var fns []*symtab.Fn
	if each != nil {
		fns = make([]*symtab.Fn, nFns)
	}
	for i := 0; i < int(nFns); i++ {
		if len(p) < 2 {
			return fail("symbol %d: truncated", i)
		}
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen {
			return fail("symbol %d: truncated name", i)
		}
		name := p[:nameLen]
		p = p[nameLen:]
		var base, size, id uint64
		if base, p, err = uvarint(p); err != nil {
			return fail("symbol %d base: %w", i, err)
		}
		if size, p, err = uvarint(p); err != nil {
			return fail("symbol %d size: %w", i, err)
		}
		if id, p, err = uvarint(p); err != nil {
			return fail("symbol %d id: %w", i, err)
		}
		if id > 1<<31 {
			return fail("symbol %d id %d out of range", i, id)
		}
		if fns != nil {
			fns[i] = &symtab.Fn{Name: string(name), Base: base, Size: size, ID: int(id)}
		}
	}

	nItems, p, err := uvarint(p)
	if err != nil {
		return fail("item count: %w", err)
	}
	if nItems > uint64(len(p))/14 {
		return fail("absurd item count %d", nItems)
	}
	var it core.Item
	var funcs []core.FuncSpan // the visitor's scratch spans, reused item to item
	for i := 0; i < int(nItems); i++ {
		if it.ID, p, err = uvarint(p); err != nil {
			return fail("item %d id: %w", i, err)
		}
		var c int64
		if c, p, err = varint(p); err != nil {
			return fail("item %d core: %w", i, err)
		}
		if c < -1<<31 || c > 1<<31-1 {
			return fail("item %d core %d out of range", i, c)
		}
		it.Core = int32(c)
		if it.BeginTSC, p, err = uvarint(p); err != nil {
			return fail("item %d begin: %w", i, err)
		}
		if it.EndTSC, p, err = uvarint(p); err != nil {
			return fail("item %d end: %w", i, err)
		}
		var sc, un uint64
		if sc, p, err = uvarint(p); err != nil {
			return fail("item %d samples: %w", i, err)
		}
		if un, p, err = uvarint(p); err != nil {
			return fail("item %d unresolved: %w", i, err)
		}
		if sc > 1<<40 || un > sc {
			return fail("item %d sample counts %d/%d implausible", i, un, sc)
		}
		it.SampleCount, it.UnresolvedSamples = int(sc), int(un)
		if len(p) < 8 {
			return fail("item %d: truncated confidence", i)
		}
		it.Confidence = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		if !(it.Confidence >= 0 && it.Confidence <= 1) {
			return fail("item %d confidence %v outside [0,1]", i, it.Confidence)
		}
		var nSpans uint64
		if nSpans, p, err = uvarint(p); err != nil {
			return fail("item %d span count: %w", i, err)
		}
		if nSpans > uint64(len(p))/4 {
			return fail("item %d: absurd span count %d", i, nSpans)
		}
		funcs = funcs[:0]
		for j := 0; j < int(nSpans); j++ {
			var sp core.FuncSpan
			var idx, samples uint64
			if idx, p, err = uvarint(p); err != nil {
				return fail("item %d span %d fn: %w", i, j, err)
			}
			if idx >= nFns {
				return fail("item %d span %d references symbol %d of %d", i, j, idx, nFns)
			}
			if samples, p, err = uvarint(p); err != nil {
				return fail("item %d span %d samples: %w", i, j, err)
			}
			if samples > 1<<40 {
				return fail("item %d span %d samples %d implausible", i, j, samples)
			}
			sp.Samples = int(samples)
			if sp.FirstTSC, p, err = uvarint(p); err != nil {
				return fail("item %d span %d first: %w", i, j, err)
			}
			if sp.LastTSC, p, err = uvarint(p); err != nil {
				return fail("item %d span %d last: %w", i, j, err)
			}
			if each != nil {
				sp.Fn = fns[idx]
				funcs = append(funcs, sp)
			}
		}
		spans += int(nSpans)
		if each != nil {
			it.Funcs = nil
			if nSpans > 0 {
				it.Funcs = funcs
			}
			each(fs.FreqHz, it)
		}
	}
	if len(p) != 0 {
		return fail("%d trailing bytes", len(p))
	}
	return fs, int(nItems), spans, nil
}
