package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/trace"
)

// Handoff payloads: the planned-drain protocol of the two-tier topology.
// A draining shard collector computes, for every source it owns, the new
// owner under the post-departure membership ring, and ships each moved
// source's complete transferable state to that owner over an ordinary
// sequenced connection — the same seq/ack + spool + CRC machinery worker
// streams use, so an unreachable new owner degrades to a spooled handoff
// that replays later, and a crash mid-drain retransmits exactly the
// frames that were never acknowledged.
//
// The stream grammar on a handoff connection (draining shard → new
// owner, one connection per destination):
//
//	Hello (source "!handoff!<shard>"), SeqStart, HandoffBegin,
//	HandoffSource*, then acks flow back as usual
//
// HandoffSource is version 2: the moved source's last completed set
// travels as the TFleetSummary payload its collector checkpoints, not as
// JSON items. A receiver reads versions 1 and 2, but one built before
// version 2 refuses it, so receivers are upgraded before drainers.
//
// The receiver treats every HandoffSource like a SetEnd: import the
// state, checkpoint, then acknowledge — both with the transport TAck
// (advancing the peer stream's watermark) and with a THandoffAck frame
// reporting what the import actually did (installed fresh, merged into a
// live source, or recognized a duplicate), so the drainer can report per
// source. Workers learn about the move from TRedirect frames carrying
// the post-departure membership table: re-hash, reconnect — no dial
// timeout against a shard that is leaving.

// HandoffPeerPrefix tags the wire-level source ID of a shard → shard
// handoff connection ("!handoff!<shard>"). The receiving collector keeps
// such peer streams out of its fleet view and uplink taps but inside its
// checkpoint — the peer stream's dedup watermark is what makes a
// replayed handoff a recognized duplicate instead of a double apply.
const HandoffPeerPrefix = "!handoff!"

// maxHandoffMembers bounds a membership table when decoding untrusted
// input; maxHandoffSources bounds the declared source count.
const (
	maxHandoffMembers = 1 << 10
	maxHandoffSources = 1 << 20
)

// HandoffBegin opens a handoff: who is draining, the membership table
// that holds after departure, and how many HandoffSource frames follow.
type HandoffBegin struct {
	// Shard is the draining shard's membership identity.
	Shard string
	// Members is the post-departure membership table (the draining shard
	// absent) — what receivers may advertise in TRedirect frames.
	Members []string
	// Sources is how many HandoffSource frames this drain ships to this
	// destination.
	Sources int
}

// AppendHandoffBegin appends a THandoffBegin payload.
func AppendHandoffBegin(dst []byte, hb HandoffBegin) ([]byte, error) {
	if len(hb.Shard) == 0 || len(hb.Shard) > 255 {
		return nil, errPayload(THandoffBegin, "shard ID must be 1–255 bytes, got %d", len(hb.Shard))
	}
	if hb.Sources < 0 || hb.Sources > maxHandoffSources {
		return nil, errPayload(THandoffBegin, "source count %d out of range", hb.Sources)
	}
	dst = append(dst, byte(len(hb.Shard)))
	dst = append(dst, hb.Shard...)
	var err error
	if dst, err = appendMembers(dst, THandoffBegin, hb.Members); err != nil {
		return nil, err
	}
	return binary.AppendUvarint(dst, uint64(hb.Sources)), nil
}

// DecodeHandoffBegin parses a THandoffBegin payload.
func DecodeHandoffBegin(p []byte) (HandoffBegin, error) {
	var hb HandoffBegin
	if len(p) < 1 {
		return hb, errPayload(THandoffBegin, "empty payload")
	}
	n := int(p[0])
	p = p[1:]
	if n == 0 || len(p) < n {
		return hb, errPayload(THandoffBegin, "truncated shard ID")
	}
	hb.Shard = string(p[:n])
	p = p[n:]
	var err error
	if hb.Members, p, err = decodeMembers(p, THandoffBegin); err != nil {
		return hb, err
	}
	srcs, p, err := uvarint(p)
	if err != nil {
		return hb, errPayload(THandoffBegin, "source count: %w", err)
	}
	if srcs > maxHandoffSources {
		return hb, errPayload(THandoffBegin, "absurd source count %d", srcs)
	}
	hb.Sources = int(srcs)
	if len(p) != 0 {
		return hb, errPayload(THandoffBegin, "%d trailing bytes", len(p))
	}
	return hb, nil
}

// HandoffDisposition is the receiver's verdict on one imported source.
type HandoffDisposition uint8

const (
	// HandoffInstalled: the source was unknown here; its state was
	// installed whole — watermarks, row, items, detector.
	HandoffInstalled HandoffDisposition = 1
	// HandoffMerged: the source's shipper arrived before its state did
	// (a degraded redirect-first drain); the cumulative counters were
	// merged additively and the live stream's state kept.
	HandoffMerged HandoffDisposition = 2
	// HandoffDuplicate: this exact handoff (same source, epoch, and
	// watermark) was already imported — a spool replay or a re-drain
	// after a crash. Nothing was applied.
	HandoffDuplicate HandoffDisposition = 3
)

// String implements fmt.Stringer.
func (d HandoffDisposition) String() string {
	switch d {
	case HandoffInstalled:
		return "installed"
	case HandoffMerged:
		return "merged"
	case HandoffDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("disposition(%d)", uint8(d))
}

// HandoffAck is the receiver's per-source import disposition, written on
// the handoff connection alongside the transport TAck.
type HandoffAck struct {
	Source      string
	Disposition HandoffDisposition
}

// AppendHandoffAck appends a THandoffAck payload.
func AppendHandoffAck(dst []byte, ha HandoffAck) ([]byte, error) {
	if len(ha.Source) == 0 || len(ha.Source) > 255 {
		return nil, errPayload(THandoffAck, "source ID must be 1–255 bytes, got %d", len(ha.Source))
	}
	switch ha.Disposition {
	case HandoffInstalled, HandoffMerged, HandoffDuplicate:
	default:
		return nil, errPayload(THandoffAck, "invalid disposition %d", ha.Disposition)
	}
	dst = append(dst, byte(len(ha.Source)))
	dst = append(dst, ha.Source...)
	return append(dst, byte(ha.Disposition)), nil
}

// DecodeHandoffAck parses a THandoffAck payload.
func DecodeHandoffAck(p []byte) (HandoffAck, error) {
	var ha HandoffAck
	if len(p) < 1 {
		return ha, errPayload(THandoffAck, "empty payload")
	}
	n := int(p[0])
	p = p[1:]
	if n == 0 || len(p) < n {
		return ha, errPayload(THandoffAck, "truncated source ID")
	}
	ha.Source = string(p[:n])
	p = p[n:]
	if len(p) != 1 {
		return ha, errPayload(THandoffAck, "want 1 disposition byte, have %d", len(p))
	}
	ha.Disposition = HandoffDisposition(p[0])
	switch ha.Disposition {
	case HandoffInstalled, HandoffMerged, HandoffDuplicate:
	default:
		return ha, errPayload(THandoffAck, "invalid disposition %d", p[0])
	}
	return ha, nil
}

// Redirect tells a shipper its source no longer lives on this collector:
// re-hash over Members and reconnect there.
type Redirect struct {
	// Members is the membership table to re-hash over (the draining
	// shard already absent).
	Members []string
}

// AppendRedirect appends a TRedirect payload.
func AppendRedirect(dst []byte, r Redirect) ([]byte, error) {
	return appendMembers(dst, TRedirect, r.Members)
}

// DecodeRedirect parses a TRedirect payload.
func DecodeRedirect(p []byte) (Redirect, error) {
	var r Redirect
	var err error
	if r.Members, p, err = decodeMembers(p, TRedirect); err != nil {
		return r, err
	}
	if len(p) != 0 {
		return r, errPayload(TRedirect, "%d trailing bytes", len(p))
	}
	return r, nil
}

// appendMembers encodes a membership table: uvarint count, then
// length-prefixed entries.
func appendMembers(dst []byte, kind Type, members []string) ([]byte, error) {
	if len(members) > maxHandoffMembers {
		return nil, errPayload(kind, "too many members (%d)", len(members))
	}
	dst = binary.AppendUvarint(dst, uint64(len(members)))
	for _, m := range members {
		if len(m) == 0 || len(m) > 255 {
			return nil, errPayload(kind, "member ID must be 1–255 bytes, got %d", len(m))
		}
		dst = append(dst, byte(len(m)))
		dst = append(dst, m...)
	}
	return dst, nil
}

func decodeMembers(p []byte, kind Type) ([]string, []byte, error) {
	n, p, err := uvarint(p)
	if err != nil {
		return nil, p, errPayload(kind, "member count: %w", err)
	}
	// Each member costs at least 2 bytes (length + 1 char).
	if n > maxHandoffMembers || n > uint64(len(p))/2 {
		return nil, p, errPayload(kind, "absurd member count %d", n)
	}
	var members []string
	for i := uint64(0); i < n; i++ {
		if len(p) < 1 {
			return nil, p, errPayload(kind, "member %d: truncated", i)
		}
		l := int(p[0])
		p = p[1:]
		if l == 0 || len(p) < l {
			return nil, p, errPayload(kind, "member %d: truncated ID (%d declared)", i, l)
		}
		members = append(members, string(p[:l]))
		p = p[l:]
	}
	return members, p, nil
}

// SourceState is the persisted row of one collector source: the (epoch,
// seq) dedup watermark, the last completed set's results and the
// cumulative accounting. It is the one definition behind both places the
// row is written — embedded in the collector's checkpoint rows and in
// HandoffSource — because a handoff is the checkpoint row traveling over a
// wire instead of through a file.
type SourceState struct {
	// Epoch and LastAcked are the dedup watermark the state reflects: the
	// restorer or importer resumes dedup exactly there, so a replaying
	// shipper's frames ≤ LastAcked are recognized duplicates.
	Epoch     uint64 `json:"epoch"`
	LastAcked uint64 `json:"last_acked"`

	FreqHz uint64 `json:"freq_hz,omitempty"`

	// Last-completed-set results (the fleet row's live half). Items is
	// only read: rows written before the Summary payload carried the
	// items as JSON.
	Items []core.Item      `json:"items,omitempty"`
	Gaps  trace.Gaps       `json:"gaps"`
	Diag  core.Diagnostics `json:"diag"`

	// Cumulative accounting.
	Sets          uint64  `json:"sets"`
	AbortedSets   uint64  `json:"aborted_sets"`
	Frames        uint64  `json:"frames"`
	CRCErrors     uint64  `json:"crc_errors"`
	Disconnects   uint64  `json:"disconnects"`
	LostMarkers   uint64  `json:"lost_markers"`
	LostSamples   uint64  `json:"lost_samples"`
	ConfSum       float64 `json:"conf_sum"`
	ConfN         int     `json:"conf_n"`
	LastMeanConf  float64 `json:"last_mean_conf"`
	LastDegraded  bool    `json:"last_degraded"`
	EverConnected bool    `json:"ever_connected"`

	// Summary is the last completed set's items as a TFleetSummary payload
	// (Source, FreqHz and Items set, every other field zero). It is a
	// []byte, so encoding/json writes it as base64 and never looks at an
	// item.
	Summary []byte `json:"summary,omitempty"`
}

// HandoffSource is one moved source's complete transferable state: the
// checkpoint row a restart would restore plus what only a live owner has,
// the verdict snapshot and the detector.
//
// The payload is a version byte followed by JSON — the checkpoint's
// encoding, items inside as the Summary payload, not a varint layout: it
// happens once per source per drain (control plane, not the ingest hot
// path), and the detector snapshot is deeply nested. Integrity is the
// frame CRC's job; shape validation happens after parse, and the importer
// re-validates the summary payload, watermarks and the detector snapshot
// under its own rules. The drain quiesces each source at
// a set boundary, so the exported LastAcked is both its applied and its
// acknowledged watermark.
type HandoffSource struct {
	Source string `json:"source"`
	SourceState

	// Published verdict snapshot (what /verdicts serves) and the full
	// detector state; nil Detector means the source ran no detector.
	Verdicts       []detect.Verdict `json:"verdicts,omitempty"`
	ActiveVerdicts int              `json:"active_verdicts,omitempty"`
	Detector       *detect.Snapshot `json:"detector,omitempty"`
}

// handoffSourceVersion guards the JSON layout behind the version byte.
// Version 1 carried the items as JSON (SourceState.Items); it is still
// read.
const handoffSourceVersion = 2

// AppendHandoffSource appends a THandoffSource payload. The state carries
// its items as Summary; one holding JSON items is refused.
func AppendHandoffSource(dst []byte, hs *HandoffSource) ([]byte, error) {
	if err := hs.validate(handoffSourceVersion); err != nil {
		return nil, err
	}
	data, err := json.Marshal(hs)
	if err != nil {
		return nil, errPayload(THandoffSource, "encode: %w", err)
	}
	dst = append(dst, handoffSourceVersion)
	return append(dst, data...), nil
}

// DecodeHandoffSource parses a THandoffSource payload. Corrupt input
// returns an error, never panics; the frame CRC has already vouched for
// transport integrity, so parse failures here mean version skew or a bug.
func DecodeHandoffSource(p []byte) (*HandoffSource, error) {
	if len(p) < 1 {
		return nil, errPayload(THandoffSource, "empty payload")
	}
	if p[0] != 1 && p[0] != handoffSourceVersion {
		return nil, errPayload(THandoffSource, "unsupported version %d", p[0])
	}
	hs := &HandoffSource{}
	if err := json.Unmarshal(p[1:], hs); err != nil {
		return nil, errPayload(THandoffSource, "decode: %w", err)
	}
	if err := hs.validate(p[0]); err != nil {
		return nil, err
	}
	return hs, nil
}

// validate checks hs as a payload of the given version carries it.
func (hs *HandoffSource) validate(version byte) error {
	if len(hs.Source) == 0 || len(hs.Source) > 255 {
		return errPayload(THandoffSource, "source ID must be 1–255 bytes, got %d", len(hs.Source))
	}
	if version > 1 && len(hs.Items) > 0 {
		return errPayload(THandoffSource, "version %d carries items only as the summary payload", version)
	}
	if hs.ConfN < 0 {
		return errPayload(THandoffSource, "negative confidence count %d", hs.ConfN)
	}
	if !(hs.LastMeanConf >= 0 && hs.LastMeanConf <= 1) {
		return errPayload(THandoffSource, "mean confidence %v outside [0,1]", hs.LastMeanConf)
	}
	if !(hs.ConfSum >= 0) {
		return errPayload(THandoffSource, "negative confidence sum %v", hs.ConfSum)
	}
	if hs.ActiveVerdicts < 0 || hs.ActiveVerdicts > 1<<20 {
		return errPayload(THandoffSource, "absurd active verdict count %d", hs.ActiveVerdicts)
	}
	if len(hs.Verdicts) > maxWireVerdicts {
		return errPayload(THandoffSource, "too many verdicts (%d)", len(hs.Verdicts))
	}
	return nil
}
