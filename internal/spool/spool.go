// Package spool is the shipper's durability layer: a disk-backed segment
// log that wire frames are appended to before transmission, so a shipper
// restart — or a collector that has not yet acknowledged delivery — never
// silently discards a trace that may contain the one occurrence of a
// fluctuation the whole system exists to catch.
//
// Layout. A spool is a directory holding a small metadata file plus
// numbered segment files:
//
//	spool.meta            epoch + next-sequence watermark (atomic rename)
//	00000000000000000001.seg
//	00000000000000002049.seg
//	...
//
// A segment file is nothing but concatenated frames in the canonical
// internal/wire encoding — length, type, payload, CRC32C — and its name is
// the sequence number of its first frame, zero-padded so lexical order is
// numeric order. Frame i of a segment therefore has sequence base+i with
// no per-frame bookkeeping at all, and a stored frame is shipped verbatim.
//
// Recovery. Opening a spool scans every segment with the wire decoder and
// truncates at the first torn frame (the tail a dying process half-wrote),
// surfacing the damage as an error wrapping io.ErrUnexpectedEOF with the
// byte offset — the same contract trace.Decode keeps for truncated trace
// files. Segments after a torn one are unreachable (their sequence run is
// broken) and are deleted. Everything that survives the scan is
// retransmittable.
//
// Acknowledgement. Ack(seq) records that every frame numbered ≤ seq is
// durable on the collector; segments whose frames are all covered are
// deleted. The numbering epoch distinguishes spool generations: a spool
// that survives a restart resumes its epoch and numbering, a freshly
// created spool starts a new epoch so a collector's remembered watermark
// for the old generation cannot misfire as deduplication of new data.
package spool

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wire"
)

// metaName is the spool metadata file inside the directory.
const metaName = "spool.meta"

// segSuffix is the segment file extension.
const segSuffix = ".seg"

// Config parameterizes a Spool.
type Config struct {
	// Dir is the spool directory; created if absent.
	Dir string
	// Registry receives the spool's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry

	// segmentBytes rotates the active segment once it reaches this size
	// (default 1 MiB; this package's tests shrink it to force rotations).
	// Acks delete whole segments, so smaller segments reclaim disk sooner
	// at the price of more files.
	segmentBytes int
	// epoch pins the numbering epoch of a freshly created spool (this
	// package's tests, for determinism; default time-derived). A spool
	// that already has metadata keeps its recorded epoch — the frames on
	// disk belong to it.
	epoch uint64
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Segments and Frames count what survived the scan and is pending
	// retransmission.
	Segments, Frames int
	// TornBytes is how many trailing bytes were truncated from a
	// half-written segment tail.
	TornBytes int64
	// TornErr is the decode error that stopped the scan (nil when the
	// spool was clean). Truncation wraps io.ErrUnexpectedEOF with the
	// byte offset; corruption wraps wire.ErrChecksum.
	TornErr error
	// DroppedSegments counts segments deleted because a torn segment
	// before them broke the sequence run.
	DroppedSegments int
}

// segment is one on-disk segment file.
type segment struct {
	base   uint64 // sequence number of the first frame
	frames int
	bytes  int64
	path   string
}

// Spool is the disk-backed frame log. All methods are safe for concurrent
// use.
type Spool struct {
	cfg   Config
	epoch uint64

	mu      sync.Mutex
	segs    []segment // ascending by base; the last one is active when f != nil
	f       *os.File  // active segment, nil when none
	w       *bufio.Writer
	nextSeq uint64 // sequence of the next appended frame
	acked   uint64 // highest acked sequence (monotonic)
	closed  bool

	tornBytes int64           // recovery-time truncation total
	pool      *wire.FramePool // recovery and replay read frames into it

	metSegments *obs.Gauge
	metBytes    *obs.Gauge
	metAppends  *obs.Counter
	metAppendB  *obs.Counter
	metAckedFr  *obs.Counter
	metDeleted  *obs.Counter
	metTorn     *obs.Counter
	metRecov    *obs.Counter
	metRotErrs  *obs.Counter
}

// Open opens (creating if needed) the spool in cfg.Dir, recovering any
// frames a previous process left behind.
func Open(cfg Config) (*Spool, Recovery, error) {
	if cfg.Dir == "" {
		return nil, Recovery{}, fmt.Errorf("spool: empty directory")
	}
	if cfg.segmentBytes <= 0 {
		cfg.segmentBytes = 1 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("spool: %w", err)
	}
	s := &Spool{
		cfg:         cfg,
		pool:        wire.NewFramePool(reg),
		metSegments: reg.Gauge("fluct_spool_segments"),
		metBytes:    reg.Gauge("fluct_spool_bytes"),
		metAppends:  reg.Counter("fluct_spool_appended_frames_total"),
		metAppendB:  reg.Counter("fluct_spool_appended_bytes_total"),
		metAckedFr:  reg.Counter("fluct_spool_acked_frames_total"),
		metDeleted:  reg.Counter("fluct_spool_deleted_segments_total"),
		metTorn:     reg.Counter("fluct_spool_torn_truncations_total"),
		metRecov:    reg.Counter("fluct_spool_recovered_frames_total"),
		metRotErrs:  reg.Counter("fluct_spool_rotate_errors_total"),
	}

	epoch, metaNext, hadMeta, err := s.readMeta()
	if err != nil {
		return nil, Recovery{}, err
	}
	if !hadMeta {
		epoch = cfg.epoch
		if epoch == 0 {
			// A fresh spool needs an epoch no earlier generation used;
			// wall-clock nanoseconds are unique across restarts on one
			// host, which is the scope a source ID has anyway.
			epoch = uint64(time.Now().UnixNano()) | 1
		}
	}
	s.epoch = epoch
	s.nextSeq = metaNext
	if s.nextSeq == 0 {
		s.nextSeq = 1
	}

	rec, err := s.recover()
	if err != nil {
		return nil, rec, err
	}
	if !hadMeta {
		if err := s.writeMeta(); err != nil {
			return nil, rec, err
		}
	}
	s.publish()
	return s, rec, nil
}

// Epoch returns the spool's numbering epoch.
func (s *Spool) Epoch() uint64 { return s.epoch }

// NextSeq returns the sequence number the next Append will be assigned.
func (s *Spool) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// AckedSeq returns the highest acknowledged sequence number.
func (s *Spool) AckedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// FirstSeq returns the sequence number of the oldest spooled frame, or
// NextSeq when the spool is empty.
func (s *Spool) FirstSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) == 0 {
		return s.nextSeq
	}
	return s.segs[0].base
}

// Append stores one canonically encoded wire frame and returns its
// sequence number. The write lands in the active segment through a
// buffered writer — durability against a kill is only as strong as the
// last Sync/rotation, which is the deliberate hot-path trade: the frames
// at risk are exactly the never-transmitted, never-acked tail.
func (s *Spool) Append(frame []byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("spool: closed")
	}
	if err := s.ensureSegmentLocked(); err != nil {
		return 0, err
	}
	if _, err := s.w.Write(frame); err != nil {
		return 0, fmt.Errorf("spool: append: %w", err)
	}
	// Flush (no fsync) every append: a process crash must cost at most the
	// one torn write recovery truncates away, never a buffer of complete
	// frames the caller was told are spooled.
	if err := s.w.Flush(); err != nil {
		return 0, fmt.Errorf("spool: append: %w", err)
	}
	seq := s.nextSeq
	s.nextSeq++
	cur := &s.segs[len(s.segs)-1]
	cur.frames++
	cur.bytes += int64(len(frame))
	s.metAppends.Inc()
	s.metAppendB.Add(uint64(len(frame)))
	if cur.bytes >= int64(s.cfg.segmentBytes) && s.rotateLocked() != nil {
		// The frame is stored — written and flushed above — so the append
		// succeeded; only closing its segment did not. The segment stays
		// active and the next append retries the rotation.
		s.metRotErrs.Inc()
	}
	s.publishLocked()
	return seq, nil
}

// Ack records that every frame numbered ≤ seq is durable on the collector
// and deletes the segments the acknowledgement fully covers.
func (s *Spool) Ack(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Close already persisted the final metadata; a late ack must not
		// delete segments or rewrite it behind the closed spool's back.
		return fmt.Errorf("spool: closed")
	}
	if seq <= s.acked {
		return nil
	}
	prevAcked := s.acked
	s.acked = seq
	if highest := s.nextSeq - 1; s.acked > highest {
		s.acked = highest
	}
	s.metAckedFr.Add(s.acked - prevAcked)

	// Delete fully covered segments, oldest first. If that would empty
	// the spool, persist the sequence watermark first: metadata must
	// claim the numbering before the last evidence of it is unlinked, or
	// a crash between the two would restart numbering from a stale point
	// and collide with the collector's dedup window.
	covered := 0
	for covered < len(s.segs) {
		seg := s.segs[covered]
		if seg.frames == 0 || seg.base+uint64(seg.frames)-1 > seq {
			break
		}
		covered++
	}
	if covered == 0 {
		return nil
	}
	if covered == len(s.segs) {
		if err := s.closeActiveLocked(); err != nil {
			return err
		}
		if err := s.writeMeta(); err != nil {
			return err
		}
	}
	for i := 0; i < covered; i++ {
		if err := os.Remove(s.segs[i].path); err != nil {
			return fmt.Errorf("spool: ack: %w", err)
		}
		s.metDeleted.Inc()
	}
	s.segs = append(s.segs[:0], s.segs[covered:]...)
	s.publishLocked()
	return nil
}

// Frames replays every spooled frame with sequence ≥ from, in order,
// passing each frame's sequence number and canonical encoding. The byte
// slice is released when the callback returns; it must not retain it.
func (s *Spool) Frames(from uint64, fn func(seq uint64, frame []byte) error) error {
	s.mu.Lock()
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("spool: flush: %w", err)
		}
	}
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()

	for _, seg := range segs {
		if seg.frames == 0 || seg.base+uint64(seg.frames) <= from {
			continue
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return fmt.Errorf("spool: replay: %w", err)
		}
		rd := s.pool.NewReader(bufio.NewReader(f))
		for i := 0; i < seg.frames; i++ {
			v, err := rd.Next()
			if err != nil {
				f.Close()
				return fmt.Errorf("spool: replay %s frame %d: %w", filepath.Base(seg.path), i, err)
			}
			seq := seg.base + uint64(i)
			if seq >= from {
				err = fn(seq, v.Raw())
			}
			v.Release()
			if err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// Sync flushes the active segment to the OS and fsyncs it.
func (s *Spool) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("spool: sync: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("spool: sync: %w", err)
	}
	return nil
}

// Close flushes and closes the spool, persisting the sequence watermark.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.closeActiveLocked(); err != nil {
		return err
	}
	return s.writeMeta()
}

// ensureSegmentLocked opens a fresh active segment if none is open.
func (s *Spool) ensureSegmentLocked() error {
	if s.f != nil {
		return nil
	}
	seg := segment{
		base: s.nextSeq,
		path: filepath.Join(s.cfg.Dir, fmt.Sprintf("%020d%s", s.nextSeq, segSuffix)),
	}
	f, err := os.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("spool: segment: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.segs = append(s.segs, seg)
	return nil
}

// rotateLocked closes the active segment so the next append starts a new
// one. The closed segment is fsynced: rotation is the durability boundary.
func (s *Spool) rotateLocked() error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("spool: rotate: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("spool: rotate: %w", err)
	}
	err := s.f.Close()
	s.f, s.w = nil, nil // the descriptor is gone whatever Close reports
	if err != nil {
		return fmt.Errorf("spool: rotate: %w", err)
	}
	return nil
}

// closeActiveLocked flushes and closes the active segment, if any.
func (s *Spool) closeActiveLocked() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("spool: close: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("spool: close: %w", err)
	}
	s.f, s.w = nil, nil
	return nil
}

// recover scans the segments on disk, truncating at the first torn frame
// and deleting segments stranded behind the tear.
func (s *Spool) recover() (Recovery, error) {
	var rec Recovery
	names, err := filepath.Glob(filepath.Join(s.cfg.Dir, "*"+segSuffix))
	if err != nil {
		return rec, fmt.Errorf("spool: %w", err)
	}
	sort.Strings(names)
	torn := false
	for _, path := range names {
		base, perr := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), segSuffix), 10, 64)
		if perr != nil || base == 0 {
			return rec, fmt.Errorf("spool: alien segment file %s", path)
		}
		if torn {
			// A torn segment before this one broke the sequence run; the
			// frames here are unreachable for in-order retransmission.
			if err := os.Remove(path); err != nil {
				return rec, fmt.Errorf("spool: %w", err)
			}
			rec.DroppedSegments++
			continue
		}
		seg, tornErr, err := s.scanSegment(path, base)
		if err != nil {
			return rec, err
		}
		if tornErr != nil {
			torn = true
			rec.TornErr = tornErr
			s.metTorn.Inc()
		}
		if seg.frames == 0 {
			if err := os.Remove(path); err != nil {
				return rec, fmt.Errorf("spool: %w", err)
			}
			continue
		}
		s.segs = append(s.segs, seg)
		rec.Segments++
		rec.Frames += seg.frames
		s.metRecov.Add(uint64(seg.frames))
		if next := seg.base + uint64(seg.frames); next > s.nextSeq {
			s.nextSeq = next
		}
	}
	for i := 1; i < len(s.segs); i++ {
		if s.segs[i].base != s.segs[i-1].base+uint64(s.segs[i-1].frames) {
			return rec, fmt.Errorf("spool: sequence gap between %s and %s",
				filepath.Base(s.segs[i-1].path), filepath.Base(s.segs[i].path))
		}
	}
	if len(s.segs) > 0 {
		s.acked = s.segs[0].base - 1
	} else {
		s.acked = s.nextSeq - 1
	}
	rec.TornBytes = s.tornBytes
	return rec, nil
}

// scanSegment validates one segment file frame by frame, truncating it at
// the first torn or corrupt frame. The returned tornErr is non-nil when a
// truncation happened; it wraps io.ErrUnexpectedEOF (half-written tail)
// or wire.ErrChecksum (bit rot) with the byte offset.
func (s *Spool) scanSegment(path string, base uint64) (segment, error, error) {
	seg := segment{base: base, path: path}
	f, err := os.Open(path)
	if err != nil {
		return seg, nil, fmt.Errorf("spool: %w", err)
	}
	defer f.Close()
	rd := s.pool.NewReader(bufio.NewReader(f))
	var (
		off  int64
		rerr error
	)
	for {
		var v wire.FrameView
		if v, rerr = rd.Next(); rerr != nil {
			break
		}
		off += int64(len(v.Raw()))
		v.Release()
		seg.frames++
	}
	if rerr == io.EOF {
		seg.bytes = off
		return seg, nil, nil
	}
	// Torn or corrupt tail: truncate at the last intact frame boundary.
	info, err := os.Stat(path)
	if err != nil {
		return seg, nil, fmt.Errorf("spool: %w", err)
	}
	s.tornBytes += info.Size() - off
	if err := os.Truncate(path, off); err != nil {
		return seg, nil, fmt.Errorf("spool: truncate: %w", err)
	}
	seg.bytes = off
	tornErr := fmt.Errorf("spool: segment %s: torn frame at byte %d: %w",
		filepath.Base(path), off, rerr)
	if !errors.Is(rerr, wire.ErrChecksum) && !errors.Is(rerr, io.ErrUnexpectedEOF) {
		// An absurd length field: framing itself is gone past this point.
		tornErr = fmt.Errorf("spool: segment %s: torn frame at byte %d: %v: %w",
			filepath.Base(path), off, rerr, io.ErrUnexpectedEOF)
	}
	return seg, tornErr, nil
}

// readMeta loads the metadata file. Returns hadMeta=false when absent.
func (s *Spool) readMeta() (epoch, next uint64, hadMeta bool, err error) {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("spool: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 || lines[0] != "fluct-spool v1" {
		return 0, 0, false, fmt.Errorf("spool: %s: not a spool metadata file", metaName)
	}
	for _, line := range lines[1:] {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, perr := strconv.ParseUint(v, 10, 64)
		if perr != nil {
			return 0, 0, false, fmt.Errorf("spool: %s: bad %s value %q", metaName, k, v)
		}
		switch k {
		case "epoch":
			epoch = n
		case "next":
			next = n
		}
	}
	if epoch == 0 {
		return 0, 0, false, fmt.Errorf("spool: %s: missing epoch", metaName)
	}
	return epoch, next, true, nil
}

// writeMeta persists epoch + next-sequence watermark.
func (s *Spool) writeMeta() error {
	meta := fmt.Sprintf("fluct-spool v1\nepoch %d\nnext %d\n", s.epoch, s.nextSeq)
	if err := durable.WriteFile(filepath.Join(s.cfg.Dir, metaName), []byte(meta)); err != nil {
		return fmt.Errorf("spool: meta: %w", err)
	}
	return nil
}

// publish pushes the gauges under the lock.
func (s *Spool) publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked()
}

func (s *Spool) publishLocked() {
	s.metSegments.SetInt(len(s.segs))
	var b int64
	for i := range s.segs {
		b += s.segs[i].bytes
	}
	s.metBytes.SetInt(int(b))
}
