// Package durable states once what every durable hop of the delivery path
// needs: an atomic file replace (JSONFile writes a JSON snapshot through it
// from a kept buffer), and the receiver half of the seq/ack protocol
// (internal/wire/seq.go) — Watermark's rules and Receiver, the one receive
// loop that applies them for every tier.
//
// The protocol's promise is that an acknowledged frame is never lost and an
// applied frame is never applied twice, across crashes of either end. A
// receiver keeps it with four rules, which are Watermark's four methods:
// Start resyncs to a SeqStart, Admit claims a frame's number or names it a
// duplicate or stale, Settle records what the state reflects, and Commit
// advances what may be acknowledged once a snapshot is durable.
package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
)

// tempFile is the part of *os.File WriteFile uses; createTemp is swapped by
// the package's own tests to fail each step in turn.
type tempFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

var createTemp = func(dir, pattern string) (tempFile, error) { return os.CreateTemp(dir, pattern) }

// WriteFile atomically replaces path with data: a temp file in the same
// directory is written, fsynced, closed and renamed over path. On any error
// the temp file is removed and the previous contents of path are intact.
func WriteFile(path string, data []byte) error {
	tmp, err := createTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// JSONFile writes a JSON snapshot through WriteFile from a buffer it keeps,
// so a file rewritten before every ack costs no fresh output buffer each
// time. The zero value is ready; its owner serializes the calls (a tier
// holds its checkpoint mutex across Write).
type JSONFile struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Write atomically replaces path with v encoded exactly as json.Marshal
// encodes it.
func (f *JSONFile) Write(path string, v any) error {
	if f.enc == nil {
		f.enc = json.NewEncoder(&f.buf)
	}
	f.buf.Reset()
	if err := f.enc.Encode(v); err != nil {
		return err
	}
	// Encode ends the value with a newline that Marshal does not write.
	return WriteFile(path, bytes.TrimSuffix(f.buf.Bytes(), []byte{'\n'}))
}

// Watermark is a receiver's delivery state for one sequenced stream. The
// owner guards it with whatever lock guards the state the stream feeds.
// Acked ≤ Settled ≤ Applied always holds.
type Watermark struct {
	// Epoch is the sender's numbering generation.
	Epoch uint64
	// Applied is the highest sequence number admitted: the dedup line.
	Applied uint64
	// Settled is the highest sequence number whose effects are in the state
	// a snapshot taken now would capture — what a snapshot records.
	Settled uint64
	// Acked is the highest sequence number held by a durable snapshot: the
	// only value ever advertised or acknowledged to the sender.
	Acked uint64
}

// Restored is the watermark of a receiver restarted from a snapshot that
// recorded seq: whatever was applied past it died with the process, and the
// sender replays from there.
func Restored(epoch, seq uint64) Watermark {
	return Watermark{Epoch: epoch, Applied: seq, Settled: seq, Acked: seq}
}

// Start applies a connection's SeqStart and returns the two lines to
// advertise back: ack, what the sender may reclaim, and resume, the last
// frame it need not send again. orphaned reports that the numbering moved
// under whatever the receiver had in flight (new epoch, or a forward
// resync), which can therefore never complete.
//
// resume is the dedup line — except while a settled frame still waits for
// its snapshot (a failed checkpoint withheld its ack): only a retransmission
// of that frame re-attempts the snapshot, so the sender is sent back to the
// durable line.
func (w *Watermark) Start(epoch, firstSeq uint64) (ack, resume uint64, orphaned bool) {
	if w.Epoch != epoch {
		*w = Watermark{Epoch: epoch}
		orphaned = true
	}
	if firstSeq > w.Applied+1 {
		*w = Restored(epoch, firstSeq-1)
		orphaned = true
	}
	resume = w.Applied
	if w.Settled > w.Acked {
		resume = w.Acked
	}
	return w.Acked, resume, orphaned
}

// Admission is Admit's verdict on one numbered frame.
type Admission uint8

const (
	// Fresh: the frame is new and now owns its sequence number.
	Fresh Admission = iota
	// Duplicate: a retransmission of a frame already admitted.
	Duplicate
	// Stale: the connection's epoch was superseded by a newer SeqStart;
	// nothing it carries may touch the new generation's numbering.
	Stale
)

// Admit classifies the frame numbered seq arriving on a connection that
// opened under epoch. Call it in the same critical section that hands a
// Fresh frame on for application, so two live connections can never both
// admit one number.
func (w *Watermark) Admit(epoch, seq uint64) Admission {
	switch {
	case epoch != w.Epoch:
		return Stale
	case seq <= w.Applied:
		return Duplicate
	}
	w.Applied = seq
	return Fresh
}

// Settle records that the receiver's state reflects every frame numbered
// ≤ seq. Call it in the critical section that made it so, so a snapshot
// (which records Settled) never pairs accounting from one moment with a
// watermark from another.
func (w *Watermark) Settle(epoch, seq uint64) {
	if epoch == w.Epoch && seq > w.Settled {
		w.Settled = seq
	}
}

// Commit advances Acked to seq once a snapshot recording at least seq is
// durable (or at once, for a receiver configured without snapshots). An
// uncommitted watermark is never advertised, so the sender never reclaims
// a frame a receiver crash could still lose.
func (w *Watermark) Commit(epoch, seq uint64) {
	if epoch == w.Epoch && seq > w.Acked {
		w.Acked = seq
	}
}

// Numbering is one connection's implicit frame numbering: after a SeqStart,
// data frames count up from its FirstSeq without carrying their numbers.
// The zero value is a connection whose SeqStart has not arrived; sequence
// numbers start at 1.
type Numbering struct {
	Epoch uint64
	next  uint64
}

// Begin starts (or restarts) the numbering at a SeqStart.
func (n *Numbering) Begin(epoch, firstSeq uint64) {
	*n = Numbering{Epoch: epoch, next: firstSeq}
}

// Take consumes and returns the next sequence number. ok is false for a data
// frame that arrived before any SeqStart (or after one that declared
// FirstSeq 0): it has no number, and the grammar has no place for it.
func (n *Numbering) Take() (seq uint64, ok bool) {
	if n.next == 0 {
		return 0, false
	}
	seq = n.next
	n.next++
	return seq, true
}
