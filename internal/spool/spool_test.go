package spool

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// frame builds a canonical wire frame with a recognizable payload.
func frame(t testing.TB, n int) []byte {
	t.Helper()
	return wire.AppendFrame(nil, wire.Frame{
		Type:    wire.TSetEnd,
		Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: uint64(n), Samples: uint64(n * 2)}),
	})
}

func openSpool(t testing.TB, dir string, segBytes int) (*Spool, Recovery) {
	t.Helper()
	s, rec, err := Open(Config{Dir: dir, segmentBytes: segBytes, epoch: 7, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// TestAppendReopenReplay: frames appended before a restart are all there
// after it, in order, byte-identical, with numbering continuing.
func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, rec := openSpool(t, dir, 1<<20)
	if rec.Frames != 0 || rec.TornErr != nil {
		t.Fatalf("fresh spool recovery %+v", rec)
	}
	if s.Epoch() != 7 {
		t.Fatalf("epoch %d, want config override 7", s.Epoch())
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		f := frame(t, i)
		want = append(want, f)
		seq, err := s.Append(f)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openSpool(t, dir, 1<<20)
	if rec.Frames != 10 || rec.TornErr != nil {
		t.Fatalf("recovery %+v, want 10 clean frames", rec)
	}
	if s2.Epoch() != 7 {
		t.Fatalf("epoch not preserved: %d", s2.Epoch())
	}
	if s2.NextSeq() != 11 {
		t.Fatalf("next seq %d, want 11", s2.NextSeq())
	}
	var got [][]byte
	err := s2.Frames(1, func(seq uint64, raw []byte) error {
		if seq != uint64(len(got)+1) {
			t.Fatalf("replay seq %d out of order", seq)
		}
		got = append(got, append([]byte(nil), raw...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs after reopen", i)
		}
	}
}

// TestRotationAndAck: small segments rotate; acking deletes exactly the
// fully covered ones; the numbering watermark survives a fully drained
// spool's restart (no sequence reuse after every segment is deleted).
func TestRotationAndAck(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSpool(t, dir, 1) // tiny bound: every frame rotates
	for i := 0; i < 6; i++ {
		if _, err := s.Append(frame(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	if err := s.Ack(3); err != nil {
		t.Fatal(err)
	}
	if got := s.AckedSeq(); got != 3 {
		t.Fatalf("acked %d, want 3", got)
	}
	var first uint64
	s.mu.Lock()
	if len(s.segs) > 0 {
		first = s.segs[0].base
	}
	s.mu.Unlock()
	if first == 0 || first > 4 {
		t.Fatalf("oldest surviving segment starts at %d, want ≤ 4 and > 0", first)
	}
	// Replay must start past the acked point.
	var seqs []uint64
	if err := s.Frames(s.AckedSeq()+1, func(seq uint64, _ []byte) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) == 0 || seqs[0] != 4 || seqs[len(seqs)-1] != 6 {
		t.Fatalf("replay seqs %v, want 4..6", seqs)
	}

	// Full ack: spool drains to zero segments, but numbering must not
	// restart after reopen.
	if err := s.Ack(6); err != nil {
		t.Fatal(err)
	}
	segs, _ = filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 0 {
		t.Fatalf("fully acked spool still holds %d segments", len(segs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := openSpool(t, dir, 1)
	if rec.Frames != 0 {
		t.Fatalf("recovery of drained spool found %d frames", rec.Frames)
	}
	if s2.NextSeq() != 7 {
		t.Fatalf("next seq %d after drained reopen, want 7 (no reuse)", s2.NextSeq())
	}
}

// TestTornTailRecovery: a half-written final frame — the shipper killed
// mid-Append — is truncated away on reopen, with the damage surfaced as an
// error wrapping io.ErrUnexpectedEOF naming the byte offset, the same
// contract trace.Decode keeps.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSpool(t, dir, 1<<20)
	var intactBytes int
	for i := 0; i < 5; i++ {
		f := frame(t, i)
		intactBytes += len(f)
		if _, err := s.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append 5 bytes of a sixth frame.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	sixth := frame(t, 6)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(sixth[:5]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec := openSpool(t, dir, 1<<20)
	if rec.Frames != 5 {
		t.Fatalf("recovered %d frames, want 5", rec.Frames)
	}
	if rec.TornBytes != 5 {
		t.Fatalf("torn bytes %d, want 5", rec.TornBytes)
	}
	if rec.TornErr == nil || !errors.Is(rec.TornErr, io.ErrUnexpectedEOF) {
		t.Fatalf("torn error %v must wrap io.ErrUnexpectedEOF", rec.TornErr)
	}
	if !strings.Contains(rec.TornErr.Error(), "byte") {
		t.Fatalf("torn error %q does not name the byte offset", rec.TornErr)
	}
	// The file was physically truncated back to the intact prefix.
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(intactBytes) {
		t.Fatalf("segment is %d bytes after recovery, want %d", info.Size(), intactBytes)
	}
	// Numbering continues past the survivors; the torn frame's sequence
	// was never assigned (Append after recovery reuses it).
	if s2.NextSeq() != 6 {
		t.Fatalf("next seq %d, want 6", s2.NextSeq())
	}
	if _, err := s2.Append(frame(t, 99)); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := s2.Frames(1, func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("replay after torn recovery has %d frames, want 6", n)
	}
}

// TestCorruptMiddleSegment: bit rot inside an earlier segment truncates it
// at the corruption and drops the stranded later segments — the sequence
// run must stay contiguous for in-order retransmission.
func TestCorruptMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSpool(t, dir, 1)
	for i := 0; i < 6; i++ {
		if _, err := s.Append(frame(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("need ≥ 3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the second segment.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[6] ^= 0xff
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openSpool(t, dir, 1)
	if rec.TornErr == nil || !errors.Is(rec.TornErr, wire.ErrChecksum) {
		t.Fatalf("torn error %v must wrap wire.ErrChecksum", rec.TornErr)
	}
	if rec.DroppedSegments == 0 {
		t.Fatal("segments stranded behind the corruption were not dropped")
	}
	// Survivors are a clean contiguous prefix.
	var last uint64
	if err := s2.Frames(1, func(seq uint64, _ []byte) error {
		if seq != last+1 {
			t.Fatalf("sequence gap: %d after %d", seq, last)
		}
		last = seq
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if last == 0 || last >= 6 {
		t.Fatalf("surviving prefix ends at %d, want in [1,5]", last)
	}
	// Numbering must NOT roll back to last+1: the lost frames may have
	// been transmitted and acked before the corruption, so reusing their
	// sequence numbers could collide with the collector's dedup window.
	// The metadata watermark (written at Close) wins.
	if s2.NextSeq() != 7 {
		t.Fatalf("next seq %d, want 7 (metadata watermark, no reuse)", s2.NextSeq())
	}
}

// TestFreshEpochDiffers: wiping the spool directory starts a new epoch, so
// a collector's watermark for the old generation cannot deduplicate away
// new data.
func TestFreshEpochDiffers(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Config{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	e1 := s.Epoch()
	if e1 == 0 {
		t.Fatal("zero epoch")
	}
	s.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(Config{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() == e1 {
		t.Fatalf("fresh spool reused epoch %d", e1)
	}
}

// FuzzSpoolRecover: arbitrary bytes as a segment file must never panic
// Open; whatever survives recovery must replay as valid wire frames, and a
// second open of the recovered spool must be clean (recovery is
// idempotent: the first pass physically truncated the damage away).
func FuzzSpoolRecover(f *testing.F) {
	f.Add([]byte{})
	intact := wire.AppendFrame(nil, wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: 3})})
	f.Add(intact)
	f.Add(intact[:len(intact)-2])
	f.Add(append(append([]byte(nil), intact...), intact[:7]...))
	corrupt := append([]byte(nil), intact...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "spool.meta"), []byte("fluct-spool v1\nepoch 3\nnext 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "00000000000000000001.seg"), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, rec, err := Open(Config{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			return // rejected outright is fine; panicking is not
		}
		frames := 0
		if err := s.Frames(1, func(seq uint64, raw []byte) error {
			if _, rest, err := wire.ParseFrameView(raw); err != nil || len(rest) != 0 {
				t.Fatalf("recovered frame %d does not decode: %v", seq, err)
			}
			frames++
			return nil
		}); err != nil {
			t.Fatalf("replay of recovered spool failed: %v", err)
		}
		if frames != rec.Frames {
			t.Fatalf("recovery reported %d frames, replay saw %d", rec.Frames, frames)
		}
		s.Close()
		s2, rec2, err := Open(Config{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("second open after recovery failed: %v", err)
		}
		if rec2.TornErr != nil {
			t.Fatalf("second open still torn: %v (recovery must truncate)", rec2.TornErr)
		}
		if rec2.Frames != rec.Frames {
			t.Fatalf("second open found %d frames, first found %d", rec2.Frames, rec.Frames)
		}
		s2.Close()
	})
}

// TestAckAfterCloseRefused: Close persists the final metadata; a late ack
// (a straggling reader goroutine at shipper shutdown) must not delete
// segments or rewrite metadata behind the closed spool's back.
func TestAckAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := openSpool(t, dir, 1<<20)
	if _, err := s.Append(frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ack(1); err == nil {
		t.Fatal("Ack after Close succeeded; want an error")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("closed spool lost its segment: %v", segs)
	}
	// Reopen: the unacked frame must still be replayable.
	s2, rec := openSpool(t, dir, 1<<20)
	defer s2.Close()
	if rec.Frames != 1 {
		t.Fatalf("recovered %d frames, want 1", rec.Frames)
	}
}

// TestOpenParentSpool: a spool directory written before spool.meta went
// through durable.WriteFile (testdata captured from the parent commit:
// ten frames appended, seven acked, closed) opens with its epoch, numbering
// and unacked frames intact.
func TestOpenParentSpool(t *testing.T) {
	dir := t.TempDir()
	names, err := filepath.Glob("testdata/parent_spool/*")
	if err != nil || len(names) != 2 {
		t.Fatalf("fixture files %v, err %v", names, err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rec, err := Open(Config{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Epoch() != 7 || s.NextSeq() != 11 || s.AckedSeq() != 6 || rec.Frames != 4 || rec.TornErr != nil {
		t.Fatalf("epoch %d next %d acked %d recovery %+v, want 7/11/6 and 4 clean frames",
			s.Epoch(), s.NextSeq(), s.AckedSeq(), rec)
	}
	want := uint64(7)
	err = s.Frames(1, func(seq uint64, raw []byte) error {
		f, _, err := wire.ParseFrameView(raw)
		if err != nil {
			return err
		}
		end, err := wire.DecodeSetEnd(f.Payload)
		if err != nil {
			return err
		}
		if seq != want || end.Markers != seq-1 || end.Samples != 100+seq-1 {
			t.Errorf("frame seq %d holds %+v, want seq %d", seq, end, want)
		}
		want++
		return nil
	})
	if err != nil || want != 11 {
		t.Fatalf("replayed up to %d, err %v", want-1, err)
	}
}

// TestAppendSurvivesFailedRotation: when the append that fills a segment
// stores its frame but the rotation behind it fails (here: fsync), the
// frame is still a stored frame — Append must hand out its sequence number
// without an error, or the caller sheds a frame that is on disk and every
// later number it tracks is off by one. The segment stays active and the
// next append retries the rotation.
func TestAppendSurvivesFailedRotation(t *testing.T) {
	reg := obs.NewRegistry()
	want := [][]byte{frame(t, 0), frame(t, 1), frame(t, 2)}
	s, _, err := Open(Config{Dir: t.TempDir(), segmentBytes: 2 * len(want[0]), epoch: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	// Swap the active file for one whose Sync fails. The buffered writer
	// keeps the real file, so the frame itself still lands on disk.
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	s.mu.Lock()
	realFile := s.f
	s.f = null
	s.mu.Unlock()
	if seq, err := s.Append(want[1]); err != nil || seq != 2 {
		t.Fatalf("append behind a failed rotation: seq %d err %v, want 2 nil", seq, err)
	}
	if got := reg.Counter("fluct_spool_rotate_errors_total").Value(); got != 1 {
		t.Fatalf("rotate errors %d, want 1", got)
	}
	// The disk heals: the next append lands in the same segment, then rotates.
	s.mu.Lock()
	s.f = realFile
	s.mu.Unlock()
	if seq, err := s.Append(want[2]); err != nil || seq != 3 {
		t.Fatalf("append after the disk healed: seq %d err %v, want 3 nil", seq, err)
	}
	s.mu.Lock()
	rotated, segs := s.f == nil, len(s.segs)
	s.mu.Unlock()
	if !rotated || segs != 1 {
		t.Fatalf("retry left active=%v segments=%d, want the one segment rotated", !rotated, segs)
	}
	var got [][]byte
	if err := s.Frames(1, func(seq uint64, raw []byte) error {
		if seq != uint64(len(got)+1) {
			t.Fatalf("replayed seq %d at position %d", seq, len(got))
		}
		got = append(got, append([]byte(nil), raw...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs after replay", i+1)
		}
	}
}
