package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol versions this build speaks. Negotiation picks the highest
// version both ends support and refuses disjoint ranges. Exactly one is
// spoken: version 4 replaced the marker-only and sample-only batch frames
// with the mixed TRecords frame (records.go), and no binary speaks two
// grammars — a Hello that tops out at version 1 (no TSeqStart/TAck), 2
// (optional SeqStart, two-field TAck) or 3 (one frame per record-kind run)
// is refused in the handshake.
const (
	// MinVersion is the oldest protocol version this build still accepts.
	MinVersion uint16 = 4
	// MaxVersion is the newest protocol version this build speaks.
	MaxVersion uint16 = 4
)

// helloMagic opens every connection inside the Hello payload, so a
// collector port probed by the wrong protocol fails loudly and instantly.
var helloMagic = [8]byte{'F', 'L', 'C', 'T', 'W', 'I', 'R', '1'}

// Hello is the shipper's opening frame.
type Hello struct {
	// MinVersion and MaxVersion bound the versions the shipper speaks.
	MinVersion, MaxVersion uint16
	// Source identifies the shipping host/process; the collector tags
	// every stream with it.
	Source string
}

// AppendHello appends a THello payload.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Source) == 0 || len(h.Source) > 255 {
		return nil, fmt.Errorf("wire: source ID must be 1–255 bytes, got %d", len(h.Source))
	}
	dst = append(dst, helloMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, h.MinVersion)
	dst = binary.LittleEndian.AppendUint16(dst, h.MaxVersion)
	dst = append(dst, byte(len(h.Source)))
	return append(dst, h.Source...), nil
}

// DecodeHello parses a THello payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 13 {
		return Hello{}, errPayload(THello, "short (%d bytes)", len(p))
	}
	var m [8]byte
	copy(m[:], p)
	if m != helloMagic {
		return Hello{}, errPayload(THello, "bad magic %q", p[:8])
	}
	h := Hello{
		MinVersion: binary.LittleEndian.Uint16(p[8:]),
		MaxVersion: binary.LittleEndian.Uint16(p[10:]),
	}
	srcLen := int(p[12])
	if srcLen == 0 || len(p[13:]) != srcLen {
		return Hello{}, errPayload(THello, "source length %d does not match payload", srcLen)
	}
	h.Source = string(p[13:])
	return h, nil
}

// HelloAck is the collector's answer.
type HelloAck struct {
	// OK reports whether the collector accepted the connection.
	OK bool
	// Version is the negotiated protocol version (0 when refused).
	Version uint16
	// Reason explains a refusal ("" when OK).
	Reason string
}

// AppendHelloAck appends a THelloAck payload.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	ok := byte(0)
	if a.OK {
		ok = 1
	}
	dst = append(dst, ok)
	dst = binary.LittleEndian.AppendUint16(dst, a.Version)
	if len(a.Reason) > 255 {
		a.Reason = a.Reason[:255]
	}
	dst = append(dst, byte(len(a.Reason)))
	return append(dst, a.Reason...)
}

// DecodeHelloAck parses a THelloAck payload.
func DecodeHelloAck(p []byte) (HelloAck, error) {
	if len(p) < 4 {
		return HelloAck{}, errPayload(THelloAck, "short (%d bytes)", len(p))
	}
	a := HelloAck{
		OK:      p[0] == 1,
		Version: binary.LittleEndian.Uint16(p[1:]),
	}
	rl := int(p[3])
	if len(p[4:]) != rl {
		return HelloAck{}, errPayload(THelloAck, "reason length %d does not match payload", rl)
	}
	a.Reason = string(p[4:])
	return a, nil
}

// Negotiate picks the protocol version two ends share: the highest version
// both speak. The boolean is false when the ranges are disjoint.
func Negotiate(localMin, localMax, peerMin, peerMax uint16) (uint16, bool) {
	v := localMax
	if peerMax < v {
		v = peerMax
	}
	floor := localMin
	if peerMin > floor {
		floor = peerMin
	}
	if v < floor {
		return 0, false
	}
	return v, true
}

// ClientHandshake runs the shipper side of the handshake on rw: send
// Hello, read HelloAck, return the negotiated version.
func ClientHandshake(rw io.ReadWriter, source string) (uint16, error) {
	payload, err := AppendHello(nil, Hello{MinVersion: MinVersion, MaxVersion: MaxVersion, Source: source})
	if err != nil {
		return 0, err
	}
	if err := WriteFrame(rw, Frame{Type: THello, Payload: payload}); err != nil {
		return 0, fmt.Errorf("wire: sending hello: %w", err)
	}
	f, err := readOne(rw)
	if err != nil {
		return 0, fmt.Errorf("wire: reading helloack: %w", err)
	}
	if f.Type != THelloAck {
		return 0, fmt.Errorf("wire: expected helloack, got %s frame", f.Type)
	}
	ack, err := DecodeHelloAck(f.Payload)
	if err != nil {
		return 0, err
	}
	if !ack.OK {
		return 0, fmt.Errorf("wire: collector refused connection: %s", ack.Reason)
	}
	if _, ok := Negotiate(MinVersion, MaxVersion, ack.Version, ack.Version); !ok {
		return 0, fmt.Errorf("wire: collector negotiated unsupported version %d", ack.Version)
	}
	return ack.Version, nil
}

// ServerHandshake runs the collector side: read Hello, negotiate, answer.
// On disjoint version ranges it sends a refusing ack and returns an error.
func ServerHandshake(rw io.ReadWriter) (source string, version uint16, err error) {
	f, err := readOne(rw)
	if err != nil {
		return "", 0, fmt.Errorf("wire: reading hello: %w", err)
	}
	if f.Type != THello {
		return "", 0, fmt.Errorf("wire: expected hello, got %s frame", f.Type)
	}
	h, err := DecodeHello(f.Payload)
	if err != nil {
		return "", 0, err
	}
	v, ok := Negotiate(MinVersion, MaxVersion, h.MinVersion, h.MaxVersion)
	if !ok {
		reason := fmt.Sprintf("no common version (collector %d–%d, shipper %d–%d)",
			MinVersion, MaxVersion, h.MinVersion, h.MaxVersion)
		_ = WriteFrame(rw, Frame{Type: THelloAck, Payload: AppendHelloAck(nil, HelloAck{Reason: reason})})
		return h.Source, 0, fmt.Errorf("wire: %s", reason)
	}
	if err := WriteFrame(rw, Frame{Type: THelloAck, Payload: AppendHelloAck(nil, HelloAck{OK: true, Version: v})}); err != nil {
		return h.Source, 0, fmt.Errorf("wire: sending helloack: %w", err)
	}
	return h.Source, v, nil
}

// readOne reads a handshake frame into a plain allocation. The reader takes
// exactly the frame's bytes, so the caller's own reader picks up at the next.
func readOne(r io.Reader) (FrameView, error) {
	var p *FramePool
	return p.NewReader(r).Next()
}
