package wire

import (
	"encoding/binary"
	"io"
)

// At-least-once delivery: per-source frame sequence numbers and cumulative
// acknowledgements. Every connection speaks it; there is no other grammar.
//
//   - The first frame after the handshake is a SeqStart declaring the
//     shipper's numbering epoch and the sequence number of the next data
//     frame. Every subsequent data frame is implicitly numbered consecutively
//     from there — the transport is ordered, the shipper transmits in
//     sequence order, so the numbers never ride on the frames themselves and
//     a stored frame is shipped verbatim. A data frame before any SeqStart
//     closes the connection.
//
//   - The receiver answers every SeqStart with an Ack carrying two lines:
//     Seq, the highest sequence durably applied for that (source, epoch),
//     and Applied, the highest it holds at all. The shipper reclaims up to
//     Seq and resumes past Applied: when the receiver holds more than it has
//     made durable, a second SeqStart on the same connection renumbers to
//     Applied+1, so a reconnect mid-set retransmits nothing the receiver
//     still has — while a receiver re-created from its snapshot (Applied =
//     Seq) is replayed to from the last durable frame.
//
//   - A further Ack follows every time the durable line advances. Acks are
//     cumulative: Ack{Seq: n} covers every frame numbered ≤ n, and none may
//     overtake what its connection has carried.
//
//   - The epoch distinguishes numbering generations. A shipper whose spool
//     survived a restart resumes its old epoch and numbering; one that lost
//     it (or never had one) starts a fresh epoch, telling the receiver that
//     any remembered watermark is void. Dedup is by (source, epoch, seq).
//
// The receiver's half of these rules is internal/durable.

// SeqStart opens (or renumbers) a connection: it declares the shipper's
// numbering epoch and the sequence number of the first data frame that
// will follow.
type SeqStart struct {
	// Epoch is the shipper's numbering generation.
	Epoch uint64
	// FirstSeq numbers the next data frame on this connection; subsequent
	// data frames count up from it.
	FirstSeq uint64
}

// AppendSeqStart appends a TSeqStart payload.
func AppendSeqStart(dst []byte, s SeqStart) []byte {
	dst = binary.AppendUvarint(dst, s.Epoch)
	return binary.AppendUvarint(dst, s.FirstSeq)
}

// DecodeSeqStart parses a TSeqStart payload.
func DecodeSeqStart(p []byte) (SeqStart, error) {
	var s SeqStart
	var err error
	s.Epoch, p, err = uvarint(p)
	if err != nil {
		return SeqStart{}, errPayload(TSeqStart, "epoch: %w", err)
	}
	s.FirstSeq, p, err = uvarint(p)
	if err != nil {
		return SeqStart{}, errPayload(TSeqStart, "first seq: %w", err)
	}
	if len(p) != 0 {
		return SeqStart{}, errPayload(TSeqStart, "%d trailing bytes", len(p))
	}
	return s, nil
}

// Ack is the receiver's cumulative delivery acknowledgement: every data
// frame of the epoch numbered ≤ Seq has been applied and made durable
// (checkpointed when the receiver checkpoints; see internal/collector), so
// the shipper may forget the frames it covers. Seq 0 means nothing is acked
// yet.
type Ack struct {
	// Epoch echoes the shipper's numbering generation.
	Epoch uint64
	// Seq is the highest durably applied sequence number.
	Seq uint64
	// Applied is the receiver's resume line: the highest sequence number it
	// holds, durable or not. Only a SeqStart reply's is meaningful; nothing
	// may be reclaimed on it.
	Applied uint64
}

// AppendAck appends a TAck payload.
func AppendAck(dst []byte, a Ack) []byte {
	dst = binary.AppendUvarint(dst, a.Epoch)
	dst = binary.AppendUvarint(dst, a.Seq)
	return binary.AppendUvarint(dst, a.Applied)
}

// DecodeAck parses a TAck payload.
func DecodeAck(p []byte) (Ack, error) {
	var a Ack
	var err error
	a.Epoch, p, err = uvarint(p)
	if err != nil {
		return Ack{}, errPayload(TAck, "epoch: %w", err)
	}
	a.Seq, p, err = uvarint(p)
	if err != nil {
		return Ack{}, errPayload(TAck, "seq: %w", err)
	}
	a.Applied, p, err = uvarint(p)
	if err != nil {
		return Ack{}, errPayload(TAck, "applied: %w", err)
	}
	if len(p) != 0 {
		return Ack{}, errPayload(TAck, "%d trailing bytes", len(p))
	}
	return a, nil
}

// WriteAck writes one TAck frame.
func WriteAck(w io.Writer, a Ack) error {
	return WriteFrame(w, Frame{Type: TAck, Payload: AppendAck(nil, a)})
}
