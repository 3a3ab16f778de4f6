// Package wire is the fleet trace-shipping protocol: a length-prefixed,
// CRC32C-checked framed binary format carrying symbol-table snapshots and
// mixed marker/PEBS-sample record frames over a byte stream (TCP in
// production, a loopback socket or an in-memory pipe in tests).
//
// The paper diagnoses one multi-core host; the ROADMAP's production system
// runs on many. A trace born on a worker machine must reach the central
// analyzer while it is still fresh, over links that drop, stall, and cut
// connections mid-frame — so every frame is independently verifiable
// (length bound + CRC32C) and the record payloads reuse the offline
// trace.Encode layouts with one transport-only change: timestamps are
// varint delta-encoded, because consecutive records on a core are close
// together and the deltas compress an 8-byte TSC to one or two bytes.
//
// Stream grammar (shipper → collector):
//
//	Hello frame, then after the HelloAck: SeqStart (Symtab Records... SetEnd | SeqStart)*
//
// Frame layout (little endian):
//
//	length  uint32   // covers type byte + payload, ≤ MaxFrameBytes
//	type    uint8
//	payload [length-1]byte
//	crc     uint32   // CRC32C (Castagnoli) over type byte + payload
//
// A frame that fails the length bound or the checksum is rejected without
// being interpreted; a frame cut short by a dying connection surfaces as a
// %w-wrapped io.ErrUnexpectedEOF so the collector can tell a cut ship from
// a corrupt one.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Type tags a frame's payload interpretation.
type Type uint8

const (
	// THello opens a connection: protocol magic, supported version range,
	// and the shipper's source ID.
	THello Type = 1
	// THelloAck answers a Hello with the negotiated version (or a refusal).
	THelloAck Type = 2
	// TSymtab starts a trace set: TSC frequency plus the symbol table, in
	// the trace.Encode symbol-section layout.
	TSymtab Type = 3
	// TMarkers and TSamples tag the two kinds of run inside a TRecords
	// payload (records.go). As frame types they were retired with version 3:
	// a frame carrying one is undecodable, like any unknown type.
	TMarkers Type = 4
	TSamples Type = 5
	// TSetEnd closes a trace set, declaring how many markers and samples
	// were sent so the collector can account for loss.
	TSetEnd Type = 6
	// TSeqStart opens every connection's data stream: the shipper's
	// numbering epoch and the sequence number of the next data frame (see
	// seq.go).
	TSeqStart Type = 7
	// TAck is the receiver's cumulative delivery acknowledgement.
	TAck Type = 8
	// TFleetSummary carries one source's merged fleet row on the shard
	// collector → global aggregator hop of the two-tier topology (see
	// fleet.go). To the sequencing layer it is an ordinary data frame.
	TFleetSummary Type = 9
	// TVerdicts carries one source's fluctuation-verdict snapshot (active
	// change-event count plus recent ranked verdicts) on the same shard →
	// aggregator hop (see verdict.go). Like TFleetSummary it is an
	// ordinary data frame to the sequencing layer.
	TVerdicts Type = 10
	// THandoffBegin opens a planned-drain handoff on a shard → shard
	// connection: the draining shard's identity, the post-departure
	// membership table, and how many sources follow (see handoff.go). To
	// the sequencing layer it is an ordinary data frame, so the whole
	// handoff rides the seq/ack + spool machinery verbatim.
	THandoffBegin Type = 11
	// THandoffSource carries one moved source's complete transferable
	// state: checkpoint row, symtab bases, detector snapshot, and the
	// (epoch, seq) dedup watermark. The receiver acknowledges it like a
	// TSetEnd — checkpoint first, ack after.
	THandoffSource Type = 12
	// THandoffAck is the receiver's per-source import disposition
	// (installed, merged, or duplicate), written alongside the transport
	// TAck so the drainer can report what actually happened to each move.
	THandoffAck Type = 13
	// TRedirect tells a shipper its source no longer lives here: re-hash
	// over the carried membership table and reconnect, instead of waiting
	// out a dial timeout against a draining shard.
	TRedirect Type = 14
	// TRecords carries a trace set's markers and PEBS samples interleaved in
	// feed order, as a sequence of single-kind runs (see records.go).
	TRecords Type = 15
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case THello:
		return "hello"
	case THelloAck:
		return "helloack"
	case TSymtab:
		return "symtab"
	case TMarkers:
		return "markers"
	case TSamples:
		return "samples"
	case TSetEnd:
		return "setend"
	case TSeqStart:
		return "seqstart"
	case TAck:
		return "ack"
	case TFleetSummary:
		return "fleetsummary"
	case TVerdicts:
		return "verdicts"
	case THandoffBegin:
		return "handoffbegin"
	case THandoffSource:
		return "handoffsource"
	case THandoffAck:
		return "handoffack"
	case TRedirect:
		return "redirect"
	case TRecords:
		return "records"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// MaxFrameBytes bounds a frame's length field when decoding untrusted
// input — large enough for a 64k-symbol snapshot, small enough that a
// corrupt length cannot make the collector allocate gigabytes.
const MaxFrameBytes = 1 << 24

// FrameOverhead is the framing cost around a payload: the length prefix,
// the type byte, and the trailing CRC32C. A frame's complete encoding is
// len(payload) + FrameOverhead bytes — what callers sizing a buffer for an
// in-place BeginFrame/EndFrame build need.
const FrameOverhead = 4 + 1 + 4

// ErrChecksum reports a frame whose CRC32C did not match its contents.
// The framing itself was intact (the length field was believable), so the
// reader may choose to drop the frame and keep the connection.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// castagnoli is the CRC32C table; PEBS shipping shares the polynomial
// every storage and network stack uses for exactly this job.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one unit of the protocol: a type tag and its payload bytes.
type Frame struct {
	Type    Type
	Payload []byte
}

// WriteFrame writes one frame to w — length, type, payload, CRC32C — in a
// single Write, so a link that cuts writes tears a frame at most once.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload)+1 > MaxFrameBytes {
		return fmt.Errorf("wire: frame payload too large (%d bytes)", len(f.Payload))
	}
	_, err := w.Write(AppendFrame(make([]byte, 0, len(f.Payload)+FrameOverhead), f))
	return err
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice — the allocation-free path the shipper uses to build its queue
// entries.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)+1))
	dst = append(dst, byte(f.Type))
	dst = append(dst, f.Payload...)
	crc := crc32.Update(0, castagnoli, dst[len(dst)-len(f.Payload)-1:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// BeginFrame reserves a frame header (length prefix + type byte) at the
// end of dst and returns the extended slice plus the frame's start offset.
// The caller appends the payload directly — typically with the Append*
// payload encoders — and then seals the frame with EndFrame. Together they
// let an encoder build a frame in its final wire form inside one buffer,
// with no intermediate payload slice to copy from.
func BeginFrame(dst []byte, t Type) ([]byte, int) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(t))
	return dst, start
}

// EndFrame seals the frame begun at start: patches the length prefix over
// the payload appended since BeginFrame and appends the CRC32C.
func EndFrame(dst []byte, start int) ([]byte, error) {
	length := len(dst) - start - 4 // type byte + payload
	if length > MaxFrameBytes {
		return dst, fmt.Errorf("wire: frame payload too large (%d bytes)", length-1)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(length))
	crc := crc32.Update(0, castagnoli, dst[start+4:])
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}
