package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/obs"
)

func TestFramePoolClasses(t *testing.T) {
	for _, tc := range []struct {
		n, wantCap int
	}{
		{1, 4 << 10},
		{4 << 10, 4 << 10},
		{4<<10 + 1, 64 << 10},
		{64 << 10, 64 << 10},
		{64<<10 + 1, 1 << 20},
		{1 << 20, 1 << 20},
		{1<<20 + 1, MaxFrameBytes + 8},
		{MaxFrameBytes + 8, MaxFrameBytes + 8},
	} {
		p := NewFramePool(obs.NewRegistry())
		b := p.Get(tc.n)
		if b.Cap() != tc.wantCap {
			t.Errorf("Get(%d): cap %d, want %d", tc.n, b.Cap(), tc.wantCap)
		}
		if len(b.Bytes()) != tc.n {
			t.Errorf("Get(%d): len %d, want %d", tc.n, len(b.Bytes()), tc.n)
		}
		b.Release()
	}
}

func TestFramePoolReuseAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewFramePool(reg)
	hits := reg.Counter("fluct_wire_pool_hits_total")
	misses := reg.Counter("fluct_wire_pool_misses_total")
	steals := reg.Counter("fluct_wire_pool_steals_total")

	// First Get allocates (miss); Release returns it; second Get of the
	// same class reuses the identical backing array (hit).
	b1 := p.Get(100)
	if got := misses.Value(); got != 1 {
		t.Fatalf("misses after first Get: %d, want 1", got)
	}
	first := &b1.Bytes()[0]
	b1.Release()
	b2 := p.Get(200)
	if &b2.Bytes()[0] != first {
		t.Fatal("pooled buffer not reused after release")
	}
	if got := hits.Value(); got != 1 {
		t.Fatalf("hits after reuse: %d, want 1", got)
	}

	// With the small class empty and a larger class populated, a small
	// request steals the big buffer rather than allocating.
	big := p.Get(64 << 10)
	big.Release()
	small := p.Get(10)
	if small.Cap() != 64<<10 {
		t.Fatalf("steal returned cap %d, want %d", small.Cap(), 64<<10)
	}
	if got := steals.Value(); got != 1 {
		t.Fatalf("steals: %d, want 1", got)
	}
	b2.Release()
	small.Release()

	// Oversized requests fall back to plain allocation and are not pooled.
	huge := p.Get(MaxFrameBytes + 9)
	if huge.Cap() != MaxFrameBytes+9 {
		t.Fatalf("oversized cap %d", huge.Cap())
	}
	huge.Release()
}

func TestBufRefcount(t *testing.T) {
	p := NewFramePool(obs.NewRegistry())
	b := p.Get(10)
	first := &b.Bytes()[0]
	b.Retain()
	b.Release() // back to 1 — must not return to the pool yet
	if got := p.Get(10); &got.Bytes()[0] == first {
		t.Fatal("buffer returned to pool while still referenced")
	}
	b.Release() // now free
	got := p.Get(10)
	if &got.Bytes()[0] != first {
		t.Fatal("buffer not returned to pool after last release")
	}
	got.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	got.Release() // refcount already 0
}

func TestBufNilSafe(t *testing.T) {
	var b *Buf
	b.Retain()
	b.Release()
	var p *FramePool
	nb := p.Get(16)
	if len(nb.Bytes()) != 16 {
		t.Fatalf("nil-pool Get len %d", len(nb.Bytes()))
	}
	nb.Release()
}

// frameStream is three frames back to back — a TRecords frame, an ack, and
// a 70 KiB fleet summary — with the offset each frame starts at and the
// stream's end.
func frameStream(t *testing.T) ([]byte, []int) {
	t.Helper()
	feed := benchFeed()
	records, _ := appendRecordFrames(nil, feed[:8])
	fs := testSummary()
	for len(fs.Items) < 3000 {
		fs.Items = append(fs.Items, testSummary().Items...)
	}
	summary, err := AppendFleetSummary(nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary) < 70<<10 {
		t.Fatalf("summary is %d bytes, want ≥ 70 KiB", len(summary))
	}
	stream := append([]byte(nil), records...)
	offs := []int{0, len(stream)}
	stream = AppendFrame(stream, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Epoch: 3, Seq: 9, Applied: 9})})
	offs = append(offs, len(stream))
	stream = AppendFrame(stream, Frame{Type: TFleetSummary, Payload: summary})
	return stream, append(offs, len(stream))
}

// checkAgrees fails unless FrameReader, over r, and ParseFrameView, over
// b, return the same frames (type and raw bytes) and the same error: text,
// io.EOF exactly on a boundary, io.ErrUnexpectedEOF inside a frame,
// ErrChecksum.
func checkAgrees(t *testing.T, p *FramePool, b []byte, r io.Reader, what string) {
	t.Helper()
	var want []FrameView // alias b
	var wantErr error
	for rest := b; wantErr == nil; {
		var v FrameView
		if v, rest, wantErr = ParseFrameView(rest); wantErr == nil {
			want = append(want, v)
		}
	}
	rd := p.NewReader(r)
	for i := 0; ; i++ {
		v, err := rd.Next()
		if err != nil {
			if i != len(want) || err.Error() != wantErr.Error() ||
				(err == io.EOF) != (wantErr == io.EOF) ||
				errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) ||
				errors.Is(err, ErrChecksum) != errors.Is(wantErr, ErrChecksum) {
				t.Fatalf("%s: reader read %d frames then %q, ParseFrameView %d then %q",
					what, i, err, len(want), wantErr)
			}
			return
		}
		same := i < len(want) && v.Type == want[i].Type && bytes.Equal(v.Raw(), want[i].Raw())
		v.Release()
		if !same {
			t.Fatalf("%s: frame %d differs from ParseFrameView's", what, i)
		}
	}
}

// raceBuild is set under the race detector (race_test.go), which makes
// copying a byte cost ~50× more.
var raceBuild bool

// TestFrameReaderMatchesParse pins the stream reader to the in-memory one
// on every prefix of a three-frame stream read through a bytes.Reader. The
// same stream with a corrupt CRC or an absurd length prefix, and reads
// through an iotest.OneByteReader, are checked on every prefix of the two
// small frames and on the boundaries and a stride of the 70 KiB one: inside
// its body every prefix is the same cut, and checking each again is
// quadratic in its size. A race build, which gains nothing here from its
// detector, strides the intact stream too.
func TestFrameReaderMatchesParse(t *testing.T) {
	p := NewFramePool(obs.NewRegistry())
	stream, offs := frameStream(t)
	corrupt := append([]byte(nil), stream...)
	corrupt[offs[1]+6] ^= 0x40 // a payload bit of the ack
	absurd := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint32(absurd[offs[2]:], MaxFrameBytes+1)
	for _, tc := range []struct {
		name string
		b    []byte
	}{{"intact", stream}, {"corrupt", corrupt}, {"absurd", absurd}} {
		for n := 0; n <= len(tc.b); n++ {
			sampled := n <= offs[2]+64 || n >= len(tc.b)-64 || n%997 == 0
			if sampled || (tc.name == "intact" && !raceBuild) {
				checkAgrees(t, p, tc.b[:n], bytes.NewReader(tc.b[:n]), fmt.Sprintf("%s[:%d]", tc.name, n))
			}
			if sampled {
				checkAgrees(t, p, tc.b[:n], iotest.OneByteReader(bytes.NewReader(tc.b[:n])),
					fmt.Sprintf("%s[:%d] one byte at a time", tc.name, n))
			}
		}
	}
}

// TestFrameReaderKeepsUnderlyingError: a read that fails for a reason other
// than the stream ending (a deadline, a reset) is still a cut frame, and
// still reports that reason.
func TestFrameReaderKeepsUnderlyingError(t *testing.T) {
	one := AppendFrame(nil, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Seq: 1})})
	for _, n := range []int{0, 2, 4, 7} {
		r := io.MultiReader(bytes.NewReader(one[:n]), iotest.ErrReader(os.ErrDeadlineExceeded))
		_, err := (*FramePool)(nil).NewReader(r).Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("deadline after %d bytes: got %v", n, err)
		}
	}
}

func TestParseFrameView(t *testing.T) {
	payload := AppendMarkers(nil, testMarkers())
	enc := AppendFrame(nil, Frame{Type: TMarkers, Payload: payload})
	enc = AppendFrame(enc, Frame{Type: TSetEnd, Payload: AppendSetEnd(nil, SetEnd{})})

	v, rest, err := ParseFrameView(enc)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != TMarkers || !bytes.Equal(v.Payload, payload) {
		t.Fatal("first frame mismatch")
	}
	v2, rest, err := ParseFrameView(rest)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Type != TSetEnd {
		t.Fatalf("second frame type %v", v2.Type)
	}
	if _, _, err := ParseFrameView(rest); err != io.EOF {
		t.Fatalf("end of run: got %v, want io.EOF", err)
	}
	one := AppendFrame(nil, Frame{Type: TMarkers, Payload: payload})
	if _, _, err := ParseFrameView(one[:len(one)-3]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated run: got %v", err)
	}
}

// TestFrameReaderHoldsNoBuffer is the property the grow-only readers
// needed a shrinking scanner for: one 1 MiB frame followed by 128 acks
// leaves nothing pinned to the reader — every buffer the pool ever handed
// out is back on a free list — and no class over its retention cap.
func TestFrameReaderHoldsNoBuffer(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewFramePool(reg)
	enc := AppendFrame(nil, Frame{Type: TSymtab, Payload: make([]byte, 1<<20-FrameOverhead)})
	for i := 0; i < 128; i++ {
		enc = AppendFrame(enc, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Epoch: 1, Seq: uint64(i)})})
	}
	rd := p.NewReader(bytes.NewReader(enc))
	for {
		v, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	free := 0
	for c := range p.classes {
		n := len(p.classes[c].free)
		if n > poolClassCap[c] {
			t.Errorf("class %d holds %d buffers, cap %d", c, n, poolClassCap[c])
		}
		free += n
	}
	if misses := reg.Counter("fluct_wire_pool_misses_total").Value(); uint64(free) != misses {
		t.Fatalf("%d buffers allocated, %d back in the pool", misses, free)
	}
	runtime.KeepAlive(rd)
}

// TestFrameReaderZeroAlloc is BenchmarkWireEncodeDecode's contract as a
// test: on a warmed pool, encoding a set into TRecords frames, reading
// them back and walking every record allocates nothing.
func TestFrameReaderZeroAlloc(t *testing.T) {
	markers, samples := benchRecords()
	feed := benchFeed()
	p := NewFramePool(obs.NewRegistry())
	enc := p.Get(64 << 10)
	defer enc.Release()
	var stream bytes.Buffer
	rd := p.NewReader(&stream)
	var err error
	run := func() {
		dst, frames := appendRecordFrames(enc.Bytes()[:0], feed)
		stream.Reset()
		stream.Write(dst)
		var nm, ns int
		nm, ns, err = walkFrames(rd, frames)
		if err == nil && (nm != len(markers) || ns != len(samples)) {
			err = fmt.Errorf("lost records: %d/%d markers, %d/%d samples", nm, len(markers), ns, len(samples))
		}
	}
	run() // warm the pool and the stream buffer
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 || err != nil {
		t.Fatalf("%v allocs per set (err %v), want 0", allocs, err)
	}
}

// TestFrameReaderConcurrentRelease races the ownership rule: views read on
// one goroutine per stream are handed to a consumer that checks them and
// releases them, while the readers keep drawing on the same pool.
func TestFrameReaderConcurrentRelease(t *testing.T) {
	p := NewFramePool(obs.NewRegistry())
	stream, _ := frameStream(t)
	views := make(chan FrameView, 8) // lets the readers run ahead of the consumer, holding views
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := p.NewReader(bytes.NewReader(bytes.Repeat(stream, 4)))
			for {
				v, err := rd.Next()
				if err != nil {
					if err != io.EOF {
						t.Error(err)
					}
					return
				}
				views <- v
			}
		}()
	}
	go func() { wg.Wait(); close(views) }()
	n := 0
	for v := range views {
		if _, _, err := ParseFrameView(v.Raw()); err != nil {
			t.Fatalf("view %d changed under its holder: %v", n, err)
		}
		v.Release()
		n++
	}
	if n != 4*4*3 {
		t.Fatalf("read %d frames, want %d", n, 4*4*3)
	}
}

// TestBeginEndFrame pins the in-place frame builder to AppendFrame's exact
// byte output, including appending after existing bytes and the oversize
// rejection.
func TestBeginEndFrame(t *testing.T) {
	payload := AppendMarkers(nil, testMarkers())
	want := AppendFrame([]byte("prefix"), Frame{Type: TMarkers, Payload: payload})

	dst := []byte("prefix")
	dst, start := BeginFrame(dst, TMarkers)
	dst = append(dst, payload...)
	dst, err := EndFrame(dst, start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatal("BeginFrame/EndFrame output differs from AppendFrame")
	}

	dst, start = BeginFrame(nil, TMarkers)
	dst = append(dst, make([]byte, MaxFrameBytes)...) // type byte pushes it over
	if _, err := EndFrame(dst, start); err == nil {
		t.Fatal("oversized frame not rejected")
	}
}
