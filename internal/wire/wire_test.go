package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

func testMarkers() []trace.Marker {
	return []trace.Marker{
		{Item: 1, TSC: 1000, Core: 0, Kind: trace.ItemBegin},
		{Item: 1, TSC: 2500, Core: 0, Kind: trace.ItemEnd},
		{Item: 7, TSC: 900, Core: 1, Kind: trace.ItemBegin}, // TSC goes backwards at the core switch
		{Item: 7, TSC: 1800, Core: 1, Kind: trace.ItemEnd},
	}
}

func testSamples() []pmu.Sample {
	return []pmu.Sample{
		{TSC: 1100, IP: 0x400100, Core: 0, Event: pmu.UopsRetired},
		{TSC: 1400, IP: 0x400180, Core: 0, Event: pmu.UopsRetired, Regs: &[pmu.NumRegs]uint64{3: 0xdeadbeef}},
		{TSC: 950, IP: 0x400200, Core: 1, Event: pmu.LLCMisses},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: TMarkers, Payload: AppendMarkers(nil, testMarkers())},
		{Type: TSamples, Payload: AppendSamples(nil, testSamples())},
		{Type: TSetEnd, Payload: AppendSetEnd(nil, SetEnd{Markers: 4, Samples: 3})},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewFramePool(obs.NewRegistry()).NewReader(&buf)
	for i, want := range frames {
		got, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip changed frame", i)
		}
		got.Release()
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("expected clean EOF at stream end, got %v", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	f := Frame{Type: TMarkers, Payload: AppendMarkers(nil, testMarkers())}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	if got := AppendFrame(nil, f); !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("AppendFrame and WriteFrame disagree")
	}
}

func TestFrameChecksumRejected(t *testing.T) {
	raw := AppendFrame(nil, Frame{Type: TSetEnd, Payload: AppendSetEnd(nil, SetEnd{Markers: 1})})
	raw[6] ^= 0x40 // flip a payload bit
	_, err := readOne(bytes.NewReader(raw))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame: got %v, want ErrChecksum", err)
	}
}

// TestFrameTruncated: a connection cut mid-frame must surface as a wrapped
// io.ErrUnexpectedEOF at every cut point, never as a clean EOF or a panic.
func TestFrameTruncated(t *testing.T) {
	raw := AppendFrame(nil, Frame{Type: TMarkers, Payload: AppendMarkers(nil, testMarkers())})
	for cut := 1; cut < len(raw); cut++ {
		_, err := readOne(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: got %v, want wrapped io.ErrUnexpectedEOF", cut, len(raw), err)
		}
	}
}

func TestMarkersRoundTrip(t *testing.T) {
	in := testMarkers()
	p := AppendMarkers(nil, in)
	var out []trace.Marker
	if err := DecodeMarkers(p, func(m trace.Marker) error { out = append(out, m); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("markers round trip:\n in %+v\nout %+v", in, out)
	}
}

func TestSamplesRoundTrip(t *testing.T) {
	in := testSamples()
	p := AppendSamples(nil, in)
	var out []pmu.Sample
	if err := DecodeSamples(p, func(s pmu.Sample) error { out = append(out, s); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("samples round trip:\n in %+v\nout %+v", in, out)
	}
}

func TestSymtabRoundTrip(t *testing.T) {
	tab := symtab.NewTable()
	tab.MustRegister("lookup", 4096)
	tab.MustRegister("render", 2048)
	p, err := AppendSymtab(nil, 2_000_000_000, tab)
	if err != nil {
		t.Fatal(err)
	}
	freq, got, err := DecodeSymtab(p)
	if err != nil {
		t.Fatal(err)
	}
	if freq != 2_000_000_000 {
		t.Fatalf("freq = %d", freq)
	}
	if got.Len() != 2 {
		t.Fatalf("decoded %d symbols", got.Len())
	}
	for i, f := range tab.Fns() {
		g := got.Fns()[i]
		if g.Name != f.Name || g.Base != f.Base || g.Size != f.Size {
			t.Fatalf("symbol %d differs: %+v vs %+v", i, g, f)
		}
	}
}

func TestHandshake(t *testing.T) {
	// An in-memory full duplex: client writes into cw, server reads cr.
	c2s, s2c := new(bytes.Buffer), new(bytes.Buffer)
	client := struct {
		io.Reader
		io.Writer
	}{s2c, c2s}
	server := struct {
		io.Reader
		io.Writer
	}{c2s, s2c}

	// Drive the half-duplex buffers in the only order that works without
	// real sockets: hello out, server turn, ack back.
	payload, err := AppendHello(nil, Hello{MinVersion: MinVersion, MaxVersion: MaxVersion, Source: "hostA"})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(client, Frame{Type: THello, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	src, v, err := ServerHandshake(server)
	if err != nil {
		t.Fatal(err)
	}
	if src != "hostA" || v != MaxVersion {
		t.Fatalf("server negotiated source=%q version=%d", src, v)
	}
	f, err := readOne(client)
	if err != nil || f.Type != THelloAck {
		t.Fatalf("client ack read: %v %v", f.Type, err)
	}
	ack, err := DecodeHelloAck(f.Payload)
	if err != nil || !ack.OK || ack.Version != MaxVersion {
		t.Fatalf("ack = %+v, err %v", ack, err)
	}
}

// TestNegotiate pins the version-selection rule: highest shared version,
// refusal only on disjoint ranges — the property that keeps old shippers
// working against a newer collector.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		lmin, lmax, pmin, pmax uint16
		want                   uint16
		ok                     bool
	}{
		{1, 1, 1, 1, 1, true},
		{1, 3, 1, 1, 1, true}, // new collector, old shipper
		{1, 1, 1, 3, 1, true}, // old collector, new shipper
		{2, 3, 2, 5, 3, true},
		{1, 1, 2, 3, 0, false}, // disjoint
		{3, 4, 1, 2, 0, false},
	}
	for _, c := range cases {
		v, ok := Negotiate(c.lmin, c.lmax, c.pmin, c.pmax)
		if v != c.want || ok != c.ok {
			t.Errorf("Negotiate(%d-%d, %d-%d) = %d,%v want %d,%v",
				c.lmin, c.lmax, c.pmin, c.pmax, v, ok, c.want, c.ok)
		}
	}
}

// TestServerHandshakeRefusesDisjoint: a Hello whose version range misses
// ours — a shipper from the future, or one that tops out at a version no
// longer spoken — is answered with HelloAck{OK:false} and an error.
func TestServerHandshakeRefusesDisjoint(t *testing.T) {
	for _, h := range []Hello{
		{MinVersion: MaxVersion + 1, MaxVersion: MaxVersion + 2, Source: "future"},
		{MinVersion: 1, MaxVersion: 1, Source: "v1-only"},
		{MinVersion: 1, MaxVersion: 2, Source: "v2-at-best"},
		{MinVersion: 1, MaxVersion: 3, Source: "v3-at-best"},
	} {
		c2s, s2c := new(bytes.Buffer), new(bytes.Buffer)
		payload, err := AppendHello(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(c2s, Frame{Type: THello, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		server := struct {
			io.Reader
			io.Writer
		}{c2s, s2c}
		if _, _, err := ServerHandshake(server); err == nil {
			t.Fatalf("accepted shipper %q speaking %d–%d", h.Source, h.MinVersion, h.MaxVersion)
		}
		f, err := readOne(s2c)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := DecodeHelloAck(f.Payload)
		if err != nil || ack.OK || ack.Reason == "" {
			t.Fatalf("%s: refusal ack = %+v, err %v", h.Source, ack, err)
		}
	}
}

// TestVarintDeltaCompression: the reason timestamps are delta-encoded —
// a marker batch must be materially smaller than the fixed 21-byte
// offline record layout.
func TestVarintDeltaCompression(t *testing.T) {
	ms := make([]trace.Marker, 1000)
	tsc := uint64(1 << 40) // large absolute TSC, small deltas
	for i := range ms {
		tsc += 1500
		kind := trace.ItemBegin
		if i%2 == 1 {
			kind = trace.ItemEnd
		}
		ms[i] = trace.Marker{Item: uint64(i / 2), TSC: tsc, Core: 0, Kind: kind}
	}
	p := AppendMarkers(nil, ms)
	if perRec := float64(len(p)) / float64(len(ms)); perRec > 8 {
		t.Fatalf("delta-encoded marker costs %.1f bytes, want ≤ 8 (offline layout is 21)", perRec)
	}
}

// TestSeqStartAckRoundTrip pins the seq/ack payloads: encode/decode
// identity, trailing-byte rejection, and truncation rejection.
func TestSeqStartAckRoundTrip(t *testing.T) {
	s := SeqStart{Epoch: 0xdeadbeef12345678, FirstSeq: 42}
	got, err := DecodeSeqStart(AppendSeqStart(nil, s))
	if err != nil || got != s {
		t.Fatalf("seqstart round trip: %+v, %v", got, err)
	}
	a := Ack{Epoch: 7, Seq: 1 << 40, Applied: 1<<40 + 9}
	ga, err := DecodeAck(AppendAck(nil, a))
	if err != nil || ga != a {
		t.Fatalf("ack round trip: %+v, %v", ga, err)
	}
	if _, err := DecodeSeqStart(append(AppendSeqStart(nil, s), 0)); err == nil {
		t.Fatal("seqstart accepted trailing bytes")
	}
	if _, err := DecodeAck(append(AppendAck(nil, a), 1)); err == nil {
		t.Fatal("ack accepted trailing bytes")
	}
	if _, err := DecodeSeqStart(nil); err == nil {
		t.Fatal("seqstart accepted empty payload")
	}
	if _, err := DecodeAck([]byte{0x80}); err == nil {
		t.Fatal("ack accepted truncated varint")
	}
	// The version-2 ack had no resume line; a peer still sending it is not
	// speaking this grammar.
	if _, err := DecodeAck(binary.AppendUvarint(binary.AppendUvarint(nil, 7), 3)); err == nil {
		t.Fatal("ack accepted the two-field version-2 payload")
	}
}

// TestV1V2Negotiation pins what is left of the compatibility matrix now
// that this build speaks only version 4: a peer that also offers older
// versions lands on 4, a peer that tops out below it has nothing in common
// with us.
func TestV1V2Negotiation(t *testing.T) {
	if MinVersion != 4 || MaxVersion != 4 {
		t.Fatalf("this build speaks %d–%d, want 4–4", MinVersion, MaxVersion)
	}
	cases := []struct {
		pmin, pmax uint16
		want       uint16
		ok         bool
	}{
		{1, 4, 4, true},  // peer still offers v1 to v3: version 4 is shared
		{4, 4, 4, true},  // both v4
		{3, 3, 0, false}, // a frame per record-kind run: refused
		{2, 2, 0, false}, // optional SeqStart, two-field TAck: refused
		{1, 1, 0, false}, // v1-only peer: refused
	}
	for _, c := range cases {
		v, ok := Negotiate(MinVersion, MaxVersion, c.pmin, c.pmax)
		if ok != c.ok || v != c.want {
			t.Fatalf("Negotiate(%d-%d, %d-%d) = %d,%v want %d,%v",
				MinVersion, MaxVersion, c.pmin, c.pmax, v, ok, c.want, c.ok)
		}
	}
}

// writeCounter counts Write calls.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite: a frame reaches the writer in a single Write, so
// a link that cuts writes can tear it at most once and an ack costs one
// syscall.
func TestWriteFrameOneWrite(t *testing.T) {
	var w writeCounter
	f := Frame{Type: TSetEnd, Payload: AppendSetEnd(nil, SetEnd{Markers: 4, Samples: 3})}
	if err := WriteFrame(&w, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteAck(&w, Ack{Epoch: 7, Seq: 40, Applied: 40}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 2 {
		t.Fatalf("2 frames took %d writes", w.writes)
	}
	want := AppendFrame(nil, f)
	want = AppendFrame(want, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Epoch: 7, Seq: 40, Applied: 40})})
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatal("WriteFrame/WriteAck bytes differ from AppendFrame")
	}
}
