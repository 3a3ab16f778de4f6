package wire

import (
	"encoding/binary"
	"io"
)

// Durable at-least-once delivery: per-source frame sequence numbers and
// cumulative acknowledgements.
//
//   - A shipper that wants acked delivery opens its stream with one
//     SeqStart frame declaring its numbering epoch and the sequence number
//     of the next data frame. Every subsequent data frame
//     (symtab/markers/samples/setend) is implicitly numbered consecutively
//     from there — the transport is ordered, the shipper transmits in
//     sequence order, so the numbers never ride on the frames themselves
//     and a spooled frame is shipped verbatim.
//
//   - The collector answers SeqStart with an Ack carrying the highest
//     sequence it has durably applied for that (source, epoch), and sends
//     a further Ack every time its durable watermark advances. Acks are
//     cumulative: Ack{Seq: n} covers every frame numbered ≤ n. An ack may
//     never overtake what its connection has carried: a shipper that
//     learns the collector is ahead redials with FirstSeq past the ack
//     instead of skipping numbers mid-connection.
//
//   - The epoch distinguishes numbering generations. A shipper whose
//     spool survived a restart resumes its old epoch and numbering; a
//     shipper that lost its spool starts a fresh epoch, telling the
//     collector that any remembered watermark is void. Dedup is by
//     (source, epoch, seq).
//
// A connection that never sends SeqStart is unsequenced: frames apply in
// arrival order, nothing is acknowledged. That is how a shipper without a
// spool works. The receiver's half of these rules is internal/durable.

// SeqStart opens acked delivery on a connection: it declares the
// shipper's numbering epoch and the sequence number of the first data
// frame that will follow.
type SeqStart struct {
	// Epoch is the shipper's spool numbering generation.
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

// Ack is the collector's cumulative delivery acknowledgement: every data
// frame of the epoch numbered ≤ Seq has been applied and made durable
// (checkpointed when the collector checkpoints; see internal/collector).
// The shipper may delete spooled frames the ack covers. Seq 0 means
// nothing is acked yet.
type Ack struct {
	// Epoch echoes the shipper's numbering generation.
	Epoch uint64
	// Seq is the highest durably applied sequence number.
	Seq uint64
}

// AppendAck appends a TAck payload.
func AppendAck(dst []byte, a Ack) []byte {
	dst = binary.AppendUvarint(dst, a.Epoch)
	return binary.AppendUvarint(dst, a.Seq)
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
	if len(p) != 0 {
		return Ack{}, errPayload(TAck, "%d trailing bytes", len(p))
	}
	return a, nil
}

// WriteAck writes one TAck frame.
func WriteAck(w io.Writer, epoch, seq uint64) error {
	return WriteFrame(w, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Epoch: epoch, Seq: seq})})
}
