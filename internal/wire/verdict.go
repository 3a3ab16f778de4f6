package wire

import (
	"encoding/binary"
	"math"

	"repro/internal/detect"
)

// Verdict payload: the fluctuation-detection half of the shard →
// aggregator hop. Whenever a source's verdict state changes (a change
// event fired or resolved), the shard collector ships the source's
// current snapshot — unresolved-event count plus the recent ranked
// verdicts — as one TVerdicts frame. Snapshots are state, not deltas:
// the aggregator keeps the last one per source (last-writer-wins, like
// fleet rows), so replays and reordering across reconnects converge on
// the same merged view the dedup already guarantees per shard.

// VerdictSet is one source's verdict snapshot as shipped on the uplink.
type VerdictSet struct {
	// Source is the originating worker's ID.
	Source string
	// Active is the source's unresolved change-event count — what the
	// aggregator's /healthz degrades on.
	Active uint32
	// Verdicts holds the source's recent verdicts, oldest first. Each
	// verdict's Source field mirrors the set's (enforced on decode, not
	// carried per record).
	Verdicts []detect.Verdict
}

// maxWireVerdicts bounds the per-snapshot verdict count: the detector
// keeps 32; anything past 256 on the wire is corruption, not load.
const maxWireVerdicts = 256

// maxVerdictFn bounds a blamed function name when decoding untrusted
// input.
const maxVerdictFn = 1 << 12

// AppendVerdicts appends a TVerdicts payload.
func AppendVerdicts(dst []byte, vs VerdictSet) ([]byte, error) {
	if len(vs.Source) == 0 || len(vs.Source) > 255 {
		return nil, errPayload(TVerdicts, "source ID must be 1–255 bytes, got %d", len(vs.Source))
	}
	if len(vs.Verdicts) > maxWireVerdicts {
		return nil, errPayload(TVerdicts, "too many verdicts (%d)", len(vs.Verdicts))
	}
	dst = append(dst, byte(len(vs.Source)))
	dst = append(dst, vs.Source...)
	dst = binary.AppendUvarint(dst, uint64(vs.Active))
	dst = binary.AppendUvarint(dst, uint64(len(vs.Verdicts)))
	for i := range vs.Verdicts {
		v := &vs.Verdicts[i]
		if len(v.Function) == 0 || len(v.Function) > maxVerdictFn {
			return nil, errPayload(TVerdicts, "verdict %d function name length %d", i, len(v.Function))
		}
		if v.Rank < 0 || v.Rank > 255 {
			return nil, errPayload(TVerdicts, "verdict %d rank %d out of range", i, v.Rank)
		}
		if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
			return nil, errPayload(TVerdicts, "verdict %d score %v not finite", i, v.Score)
		}
		if v.Window.Items < 0 {
			return nil, errPayload(TVerdicts, "verdict %d negative window size", i)
		}
		dst = binary.AppendUvarint(dst, v.Event)
		dst = append(dst, byte(v.Rank))
		dst = binary.AppendUvarint(dst, v.Item)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.Function)))
		dst = append(dst, v.Function...)
		dst = binary.AppendVarint(dst, int64(v.Core))
		dst = binary.AppendVarint(dst, v.DeltaNs)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Score))
		dst = binary.AppendUvarint(dst, v.Window.FirstItem)
		dst = binary.AppendUvarint(dst, v.Window.LastItem)
		dst = binary.AppendUvarint(dst, uint64(v.Window.Items))
	}
	return dst, nil
}

// DecodeVerdicts parses a TVerdicts payload. Corrupt or truncated input
// returns an error, never panics, and never allocates proportional to a
// declared count the remaining bytes cannot hold.
func DecodeVerdicts(p []byte) (VerdictSet, error) {
	var vs VerdictSet
	if len(p) < 1 {
		return vs, errPayload(TVerdicts, "empty payload")
	}
	srcLen := int(p[0])
	p = p[1:]
	if srcLen == 0 || len(p) < srcLen {
		return vs, errPayload(TVerdicts, "truncated source ID")
	}
	vs.Source = string(p[:srcLen])
	p = p[srcLen:]

	active, p, err := uvarint(p)
	if err != nil {
		return vs, errPayload(TVerdicts, "active count: %w", err)
	}
	if active > 1<<20 {
		return vs, errPayload(TVerdicts, "absurd active count %d", active)
	}
	vs.Active = uint32(active)

	n, p, err := uvarint(p)
	if err != nil {
		return vs, errPayload(TVerdicts, "verdict count: %w", err)
	}
	// Each verdict costs ≥ 18 bytes (worst-case single-byte varints plus
	// the fixed u16 length, u8 rank, and f64 score).
	if n > maxWireVerdicts || n > uint64(len(p))/18 {
		return vs, errPayload(TVerdicts, "absurd verdict count %d", n)
	}
	if n > 0 {
		vs.Verdicts = make([]detect.Verdict, n)
	}
	for i := range vs.Verdicts {
		v := &vs.Verdicts[i]
		v.Source = vs.Source
		if v.Event, p, err = uvarint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d event: %w", i, err)
		}
		if len(p) < 1 {
			return vs, errPayload(TVerdicts, "verdict %d: truncated rank", i)
		}
		v.Rank = int(p[0])
		p = p[1:]
		if v.Item, p, err = uvarint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d item: %w", i, err)
		}
		if len(p) < 2 {
			return vs, errPayload(TVerdicts, "verdict %d: truncated function", i)
		}
		fnLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if fnLen == 0 || fnLen > maxVerdictFn || len(p) < fnLen {
			return vs, errPayload(TVerdicts, "verdict %d: truncated function name (%d declared)", i, fnLen)
		}
		v.Function = string(p[:fnLen])
		p = p[fnLen:]
		var c int64
		if c, p, err = varint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d core: %w", i, err)
		}
		if c < -1<<31 || c > 1<<31-1 {
			return vs, errPayload(TVerdicts, "verdict %d core %d out of range", i, c)
		}
		v.Core = int32(c)
		if v.DeltaNs, p, err = varint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d delta: %w", i, err)
		}
		if len(p) < 8 {
			return vs, errPayload(TVerdicts, "verdict %d: truncated score", i)
		}
		v.Score = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
			return vs, errPayload(TVerdicts, "verdict %d score not finite", i)
		}
		if v.Window.FirstItem, p, err = uvarint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d window first: %w", i, err)
		}
		if v.Window.LastItem, p, err = uvarint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d window last: %w", i, err)
		}
		var wi uint64
		if wi, p, err = uvarint(p); err != nil {
			return vs, errPayload(TVerdicts, "verdict %d window size: %w", i, err)
		}
		if wi > 1<<24 {
			return vs, errPayload(TVerdicts, "verdict %d window size %d implausible", i, wi)
		}
		v.Window.Items = int(wi)
	}
	if len(p) != 0 {
		return vs, errPayload(TVerdicts, "%d trailing bytes", len(p))
	}
	return vs, nil
}
