// Frame buffer pooling. The v1 ingest path allocated per frame (a fresh
// payload buffer whenever the previous one was too small) and per record
// (decoded structs); under fleet load that makes the tracer's own shipping
// pipeline a GC pressure source — exactly the kind of allocation noise the
// paper warns perturbs the software being measured. The pool replaces that
// with size-classed, reference-counted buffers: a frame is read once into
// a pooled buffer, every downstream consumer (CRC check, record iterators,
// spool append, vectored socket writes) works over views of those same
// bytes, and the buffer returns to its class when the last reference drops.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// poolClassSizes are the pooled buffer capacities, smallest first. The
// classes track the frame population: acks and SetEnds are tens of bytes,
// record frames fill the smallest class and never outgrow it, fleet
// summaries are tens of KiB, symtab snapshots can reach MiBs, and the top
// class covers the largest legal frame (MaxFrameBytes of type+payload plus
// the 8 framing bytes).
var poolClassSizes = [...]int{MinBufBytes, 64 << 10, 1 << 20, MaxFrameBytes + 8}

// MinBufBytes is the smallest class: the size shippers fill a record frame
// to, so that a frame in flight never costs more than this at either end.
const MinBufBytes = 4 << 10

// poolClassCap bounds how many free buffers one class retains; beyond it a
// released buffer is dropped for the GC. 4 KiB class churn is cheap to
// keep; a 16 MiB buffer held forever is the pathology the shrink rules
// exist to avoid, so the big classes keep fewer.
var poolClassCap = [...]int{256, 64, 8, 2}

// poolClassFor returns the index of the smallest class holding n bytes, or
// -1 when n exceeds every class (the caller falls back to a plain
// allocation that is never pooled).
func poolClassFor(n int) int {
	for c, size := range poolClassSizes {
		if n <= size {
			return c
		}
	}
	return -1
}

// FramePool hands out reference-counted, size-classed frame buffers.
// The zero value is not usable; build one with NewFramePool. All methods
// are safe for concurrent use. A nil *FramePool is legal everywhere a pool
// is accepted and degrades to plain allocation.
type FramePool struct {
	classes [len(poolClassSizes)]poolClass

	metHits   *obs.Counter // served from the requested class's free list
	metMisses *obs.Counter // nothing free anywhere: fresh allocation
	metSteals *obs.Counter // served by a larger class's free buffer
}

type poolClass struct {
	mu   sync.Mutex
	free []*Buf
}

// NewFramePool builds a pool publishing fluct_wire_pool_* metrics to reg
// (nil: obs.Default()).
func NewFramePool(reg *obs.Registry) *FramePool {
	if reg == nil {
		reg = obs.Default()
	}
	return &FramePool{
		metHits:   reg.Counter("fluct_wire_pool_hits_total"),
		metMisses: reg.Counter("fluct_wire_pool_misses_total"),
		metSteals: reg.Counter("fluct_wire_pool_steals_total"),
	}
}

// Buf is one pooled buffer. It is handed out with a reference count of 1;
// Retain/Release move the count, and the buffer returns to its size class
// when the count reaches zero. A Buf obtained from a nil pool (or larger
// than every class) is a plain allocation that Release simply abandons.
type Buf struct {
	pool  *FramePool
	class int32
	refs  atomic.Int32
	b     []byte // full class capacity
	n     int    // valid prefix length
}

// Get returns a buffer with capacity ≥ n and length n. Nil-pool safe.
func (p *FramePool) Get(n int) *Buf {
	if p == nil {
		b := &Buf{class: -1, b: make([]byte, n), n: n}
		b.refs.Store(1)
		return b
	}
	c := poolClassFor(n)
	if c < 0 {
		p.metMisses.Inc()
		b := &Buf{pool: p, class: -1, b: make([]byte, n), n: n}
		b.refs.Store(1)
		return b
	}
	// Exact class first, then steal from a larger one — a big buffer
	// serving a small frame wastes capacity but saves the allocation.
	for ci := c; ci < len(p.classes); ci++ {
		cl := &p.classes[ci]
		cl.mu.Lock()
		if len(cl.free) > 0 {
			b := cl.free[len(cl.free)-1]
			cl.free = cl.free[:len(cl.free)-1]
			cl.mu.Unlock()
			if ci == c {
				p.metHits.Inc()
			} else {
				p.metSteals.Inc()
			}
			b.n = n
			b.refs.Store(1)
			return b
		}
		cl.mu.Unlock()
	}
	p.metMisses.Inc()
	b := &Buf{pool: p, class: int32(c), b: make([]byte, poolClassSizes[c]), n: n}
	b.refs.Store(1)
	return b
}

// Bytes returns the buffer's valid prefix.
func (b *Buf) Bytes() []byte { return b.b[:b.n] }

// Cap returns the buffer's full capacity.
func (b *Buf) Cap() int { return len(b.b) }

// SetLen sets the valid prefix length (0 ≤ n ≤ Cap).
func (b *Buf) SetLen(n int) { b.n = n }

// Retain adds a reference. Nil-safe.
func (b *Buf) Retain() {
	if b == nil {
		return
	}
	b.refs.Add(1)
}

// Release drops a reference, returning the buffer to its size class when
// the last one goes. Releasing more than retained is a bug; the pool
// panics rather than silently double-freeing a buffer another frame may
// already alias. Nil-safe.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	refs := b.refs.Add(-1)
	if refs > 0 {
		return
	}
	if refs < 0 {
		panic("wire: Buf released more times than retained")
	}
	p := b.pool
	if p == nil || b.class < 0 {
		return // plain allocation: the GC owns it now
	}
	cl := &p.classes[b.class]
	cl.mu.Lock()
	if len(cl.free) < poolClassCap[b.class] {
		cl.free = append(cl.free, b)
	}
	cl.mu.Unlock()
}

// FrameView is a decoded frame whose bytes live in a pooled buffer: the
// type tag, the payload (aliasing the buffer), and the complete raw
// encoding (length, type, payload, CRC — the spool/retransmit form).
// Ownership follows the buffer's reference count: the view returned by
// ReadFrameView holds one reference, Retain/Release adjust it, and no
// field of the view may be touched after the last Release.
type FrameView struct {
	Type    Type
	Payload []byte
	raw     []byte
	buf     *Buf
}

// Raw returns the frame's complete canonical encoding, suitable for spool
// append or verbatim retransmission. Aliases the pooled buffer.
func (v *FrameView) Raw() []byte { return v.raw }

// Retain adds a reference to the underlying buffer.
func (v *FrameView) Retain() { v.buf.Retain() }

// Release drops the view's reference to the underlying buffer.
func (v *FrameView) Release() { v.buf.Release() }

// ReadFrameView reads one frame from r into a pooled buffer, verifying the
// length bound and the CRC32C, and returns it as a FrameView holding one
// buffer reference (release it when done). Because every frame gets a
// fresh class-matched buffer, one oversized frame costs one oversized
// buffer exactly once — nothing stays pinned to the connection, which is
// the failure mode of the grow-only ReadFrame buffer contract (see
// FrameScanner for the unpooled fix).
//
// The error contract matches ReadFrame: truncation wraps
// io.ErrUnexpectedEOF, corruption wraps ErrChecksum, a clean EOF exactly
// on a frame boundary is io.EOF unwrapped.
func (p *FramePool) ReadFrameView(r io.Reader) (FrameView, error) {
	var hdr [4]byte
	return p.readFrameView(r, &hdr)
}

// FrameReader reads a connection's frames into pooled buffers. It exists
// to amortize the length-prefix scratch bytes — passed through io.ReadFull
// they escape, so a bare ReadFrameView pays one small allocation per frame
// while a FrameReader pays one per connection. Not safe for concurrent use.
type FrameReader struct {
	p   *FramePool
	r   io.Reader
	hdr [4]byte
}

// NewReader returns a FrameReader for r backed by this pool.
func (p *FramePool) NewReader(r io.Reader) *FrameReader {
	return &FrameReader{p: p, r: r}
}

// Next reads the next frame; same contract as ReadFrameView.
func (fr *FrameReader) Next() (FrameView, error) {
	return fr.p.readFrameView(fr.r, &fr.hdr)
}

func (p *FramePool) readFrameView(r io.Reader, hdr *[4]byte) (FrameView, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return FrameView{}, io.EOF // clean boundary
		}
		return FrameView{}, fmt.Errorf("wire: frame length: %w (%w)", io.ErrUnexpectedEOF, err)
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length == 0 || length > MaxFrameBytes {
		return FrameView{}, fmt.Errorf("wire: absurd frame length %d", length)
	}
	total := 4 + int(length) + 4
	buf := p.Get(total)
	raw := buf.Bytes()
	copy(raw, hdr[:])
	if _, err := io.ReadFull(r, raw[4:]); err != nil {
		buf.Release()
		return FrameView{}, fmt.Errorf("wire: frame body (%d bytes): %w (%w)", total-4, io.ErrUnexpectedEOF, err)
	}
	body := raw[4 : 4+length]
	crc := crc32.Update(0, castagnoli, body)
	if got := binary.LittleEndian.Uint32(raw[total-4:]); got != crc {
		t := Type(body[0])
		buf.Release()
		return FrameView{}, fmt.Errorf("wire: %s frame: %w (stored %#x, computed %#x)",
			t, ErrChecksum, got, crc)
	}
	return FrameView{Type: Type(body[0]), Payload: body[1:], raw: raw, buf: buf}, nil
}

// ParseFrameView decodes the first frame out of an in-memory byte run
// (e.g. a spool segment or a coalesced write batch), returning the view —
// which aliases b and carries no pooled buffer — and the remaining bytes.
// Same validation and error contract as ReadFrameView, with truncation
// reported against the run's end.
func ParseFrameView(b []byte) (FrameView, []byte, error) {
	if len(b) == 0 {
		return FrameView{}, nil, io.EOF
	}
	if len(b) < 4 {
		return FrameView{}, nil, fmt.Errorf("wire: frame length: %w", io.ErrUnexpectedEOF)
	}
	length := binary.LittleEndian.Uint32(b[:4])
	if length == 0 || length > MaxFrameBytes {
		return FrameView{}, nil, fmt.Errorf("wire: absurd frame length %d", length)
	}
	total := 4 + int(length) + 4
	if len(b) < total {
		return FrameView{}, nil, fmt.Errorf("wire: frame body (%d bytes): %w", total-4, io.ErrUnexpectedEOF)
	}
	body := b[4 : 4+length]
	crc := crc32.Update(0, castagnoli, body)
	if got := binary.LittleEndian.Uint32(b[total-4 : total]); got != crc {
		return FrameView{}, nil, fmt.Errorf("wire: %s frame: %w (stored %#x, computed %#x)",
			Type(body[0]), ErrChecksum, got, crc)
	}
	return FrameView{Type: Type(body[0]), Payload: body[1:], raw: b[:total]}, b[total:], nil
}
