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
	"errors"
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

// FrameView is a verified frame: the type tag, the payload, and the
// complete raw encoding (length, type, payload, CRC — the spool/retransmit
// form). A view from FrameReader.Next lives in a pooled buffer and holds
// one reference to it: the one ownership rule is that its holder Releases
// it when done, and no field of the view may be touched after the last
// Release (Retain adds a reference for a second holder). A view from
// ParseFrameView aliases the caller's bytes; Release is a no-op on it.
type FrameView struct {
	Type    Type
	Payload []byte
	raw     []byte
	buf     *Buf
}

// Raw returns the frame's complete canonical encoding, suitable for spool
// append or verbatim retransmission. Aliases the view's bytes.
func (v *FrameView) Raw() []byte { return v.raw }

// Retain adds a reference to the underlying buffer.
func (v *FrameView) Retain() { v.buf.Retain() }

// Release drops the view's reference to the underlying buffer.
func (v *FrameView) Release() { v.buf.Release() }

// FrameReader is the stream frame reader: every frame read off a
// connection, a spool segment or a handshake goes through one. Each frame
// gets a fresh class-matched buffer from the pool, so one oversized frame
// costs one oversized buffer once and nothing stays pinned to the stream.
// It reads exactly the frame's bytes and never ahead, so a reader may hand
// the stream over to another between frames. A nil pool is legal: each
// frame is then a plain allocation that Release abandons. Not safe for
// concurrent use.
type FrameReader struct {
	p   *FramePool
	r   io.Reader
	hdr [4]byte // the length prefix, read before the frame's size is known
}

// NewReader returns a FrameReader for r backed by this pool.
func (p *FramePool) NewReader(r io.Reader) *FrameReader {
	return &FrameReader{p: p, r: r}
}

// Next reads and verifies the next frame and returns it holding one buffer
// reference. A clean end of stream exactly on a frame boundary is io.EOF
// unwrapped; a frame cut short wraps io.ErrUnexpectedEOF; a corrupt one
// wraps ErrChecksum. Any other error from the underlying reader (a
// deadline, a reset) is wrapped alongside, so errors.Is still finds it.
func (fr *FrameReader) Next() (FrameView, error) {
	n, rerr := io.ReadFull(fr.r, fr.hdr[:])
	total, err := verify(fr.hdr[:n])
	if err != errShort { // clean end, cut length prefix, or absurd length
		return FrameView{}, readErr(total, err, rerr)
	}
	buf := fr.p.Get(total)
	raw := buf.Bytes()
	copy(raw, fr.hdr[:])
	n, rerr = io.ReadFull(fr.r, raw[4:])
	if _, err := verify(raw[:4+n]); err != nil {
		buf.Release()
		return FrameView{}, readErr(total, err, rerr)
	}
	return FrameView{Type: Type(raw[4]), Payload: raw[5 : total-4], raw: raw, buf: buf}, nil
}

// readErr is verify's verdict on what a read delivered, with the reader's
// own error attached when it was more than the stream running out.
func readErr(total int, err, rerr error) error {
	if err == errShort {
		err = fmt.Errorf("wire: frame body (%d bytes): %w", total-4, io.ErrUnexpectedEOF)
	}
	if rerr == nil || rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
		return err
	}
	if err == io.EOF { // nothing arrived, but the stream did not end
		err = fmt.Errorf("wire: frame length: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("%w (%w)", err, rerr)
}

// ParseFrameView decodes the first frame out of an in-memory byte run
// (e.g. a coalesced write batch), returning the view — which aliases b and
// carries no pooled buffer — and the remaining bytes. Same verification
// and error text as FrameReader.Next, with the run's end as the stream's.
func ParseFrameView(b []byte) (FrameView, []byte, error) {
	total, err := verify(b)
	if err != nil {
		return FrameView{}, nil, readErr(total, err, nil)
	}
	return FrameView{Type: Type(b[4]), Payload: b[5 : total-4], raw: b[:total]}, b[total:], nil
}

// errShort is verify's verdict on a frame whose body has not all arrived.
// Reading the length prefix alone always earns it, so it carries no text
// until readErr reports it.
var errShort = errors.New("wire: frame body cut short")

// verify is the one check a frame gets on read. It returns the frame's
// encoded size once the length prefix is whole and believable (0 before
// that), and an error until all of b[:total] is present and its CRC32C
// matches: io.EOF for an empty b, a wrapped io.ErrUnexpectedEOF for a cut
// length prefix, an absurd-length error, errShort for a cut body, or a
// wrapped ErrChecksum.
func verify(b []byte) (total int, err error) {
	switch {
	case len(b) == 0:
		return 0, io.EOF
	case len(b) < 4:
		return 0, fmt.Errorf("wire: frame length: %w", io.ErrUnexpectedEOF)
	}
	length := binary.LittleEndian.Uint32(b)
	if length == 0 || length > MaxFrameBytes {
		return 0, fmt.Errorf("wire: absurd frame length %d", length)
	}
	total = 4 + int(length) + 4
	if len(b) < total {
		return total, errShort
	}
	body := b[4 : 4+length]
	crc := crc32.Update(0, castagnoli, body)
	if got := binary.LittleEndian.Uint32(b[total-4 : total]); got != crc {
		return total, fmt.Errorf("wire: %s frame: %w (stored %#x, computed %#x)",
			Type(body[0]), ErrChecksum, got, crc)
	}
	return total, nil
}
