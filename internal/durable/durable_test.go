package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// failingTemp wraps the real temp file and fails one chosen step.
type failingTemp struct {
	*os.File
	step string
}

var errInjected = errors.New("injected")

func (f failingTemp) Write(p []byte) (int, error) {
	if f.step == "write" {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f failingTemp) Sync() error {
	if f.step == "sync" {
		return errInjected
	}
	return f.File.Sync()
}

func (f failingTemp) Close() error {
	err := f.File.Close()
	if f.step == "close" {
		return errInjected
	}
	return err
}

// TestWriteFile fails each step of the temp → write → fsync → close →
// rename sequence in turn: the previous file must survive intact and no
// temp file may be left behind. The unfailed run replaces the contents.
func TestWriteFile(t *testing.T) {
	realCreate := createTemp
	defer func() { createTemp = realCreate }()

	for _, step := range []string{"create", "write", "sync", "close", "rename", ""} {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.json")
		if step == "rename" {
			// A non-empty directory at the target path: rename(2) refuses.
			if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		createTemp = func(d, pattern string) (tempFile, error) {
			if step == "create" {
				// What an unwritable or vanished directory yields.
				return realCreate(filepath.Join(d, "missing"), pattern)
			}
			f, err := os.CreateTemp(d, pattern)
			return failingTemp{f, step}, err
		}

		err := WriteFile(path, []byte("new"))
		if (err == nil) != (step == "") {
			t.Fatalf("step %q: err = %v", step, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(left) != 0 {
			t.Errorf("step %q left temp files behind: %v", step, left)
		}
		if step == "rename" {
			continue // the target was a directory; nothing to read back
		}
		want := "old"
		if step == "" {
			want = "new"
		}
		if got, rerr := os.ReadFile(path); rerr != nil || string(got) != want {
			t.Errorf("step %q: file holds %q (err %v), want %q", step, got, rerr, want)
		}
	}
}

// TestJSONFile: each write replaces the file with exactly what json.Marshal
// returns — shorter after longer too, and HTML characters escaped as
// Marshal escapes them — and a value that does not encode leaves the
// previous file as it was.
func TestJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	var f JSONFile
	for _, v := range []any{
		map[string]any{"rows": []string{"a", "b<&>", "c"}, "blob": []byte("payload")},
		[]int{1},
		"",
	} {
		if err := f.Write(path, v); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file holds %q (err %v), want %q", got, err, want)
		}
	}
	if err := f.Write(path, math.NaN()); err == nil {
		t.Fatal("a NaN encoded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != `""` {
		t.Fatalf("after a failed write the file holds %q (err %v), want the previous one", got, err)
	}
	if err := f.Write(path, []int{2}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "[2]" {
		t.Fatalf("a write after a failed one left %q (err %v)", got, err)
	}
}

// TestWatermark drives the receiver rules without a socket: new epoch,
// resume-past-watermark resync, duplicate, stale epoch, and
// commit-only-after-durable.
func TestWatermark(t *testing.T) {
	var w Watermark

	// First contact: a new epoch voids the (empty) past and orphans
	// whatever was in flight; nothing is acked yet.
	if ack, resume, orphaned := w.Start(9, 1); ack != 0 || resume != 0 || !orphaned {
		t.Fatalf("first contact: ack %d resume %d orphaned %v, want 0 0 true", ack, resume, orphaned)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if got := w.Admit(9, seq); got != Fresh {
			t.Fatalf("seq %d: %v, want Fresh", seq, got)
		}
	}
	if got := w.Admit(9, 2); got != Duplicate {
		t.Fatalf("replayed seq 2: %v, want Duplicate", got)
	}
	if got := w.Admit(8, 4); got != Stale {
		t.Fatalf("frame from superseded epoch: %v, want Stale", got)
	}
	if w.Applied != 3 {
		t.Fatalf("stale/duplicate frames moved the dedup line to %d", w.Applied)
	}

	// Held but not durable: a reconnect reclaims nothing and resumes past
	// everything held.
	if ack, resume, _ := w.Start(9, 1); ack != 0 || resume != 3 {
		t.Fatalf("reconnect mid-stream: ack %d resume %d, want 0 3", ack, resume)
	}

	// Applied and settled, but not yet durable: a snapshot may record 3, a
	// reconnect must still be told 0 — and sent back to 0, because only a
	// replay of frame 3 re-attempts the snapshot that withheld its ack.
	w.Settle(9, 3)
	w.Settle(8, 30) // a late apply from the superseded epoch
	if w.Settled != 3 || w.Acked != 0 {
		t.Fatalf("after settle: %+v, want Settled 3 Acked 0", w)
	}
	if ack, resume, orphaned := w.Start(9, 1); ack != 0 || resume != 0 || orphaned {
		t.Fatalf("reconnect before commit: ack %d resume %d orphaned %v, want 0 0 false", ack, resume, orphaned)
	}
	w.Commit(8, 30) // a stale connection's commit
	w.Commit(9, 3)
	if ack, resume, _ := w.Start(9, 2); ack != 3 || resume != 3 {
		t.Fatalf("overlap replay after commit advertised %d/%d, want 3/3", ack, resume)
	}

	// The sender resumes past the dedup line (we lost state it was told we
	// had): resync forward, orphaning the set in flight.
	if ack, resume, orphaned := w.Start(9, 41); ack != 40 || resume != 40 || !orphaned {
		t.Fatalf("forward resync: ack %d resume %d orphaned %v, want 40 40 true", ack, resume, orphaned)
	}
	if w != Restored(9, 40) {
		t.Fatalf("forward resync left %+v", w)
	}
	if got := w.Admit(9, 40); got != Duplicate {
		t.Fatalf("seq at the resynced line: %v, want Duplicate", got)
	}

	// A new epoch resets the numbering.
	if ack, _, orphaned := w.Start(10, 1); ack != 0 || !orphaned || w != (Watermark{Epoch: 10}) {
		t.Fatalf("epoch change: ack %d orphaned %v state %+v", ack, orphaned, w)
	}
	w.Commit(9, 40)
	if w.Acked != 0 {
		t.Fatalf("old generation's commit landed on the new one: %+v", w)
	}
}

// TestNumbering: a connection has no numbers to hand out until its SeqStart
// arrives, then counts up from FirstSeq, and restarts at a second SeqStart.
func TestNumbering(t *testing.T) {
	var n Numbering
	if _, ok := n.Take(); ok {
		t.Fatal("a frame before any SeqStart was numbered")
	}
	n.Begin(7, 5)
	for want := uint64(5); want <= 6; want++ {
		if seq, ok := n.Take(); !ok || seq != want || n.Epoch != 7 {
			t.Fatalf("took %d ok=%v epoch %d, want %d true 7", seq, ok, n.Epoch, want)
		}
	}
	n.Begin(7, 9)
	if seq, _ := n.Take(); seq != 9 {
		t.Fatalf("after renumbering took %d, want 9", seq)
	}
}
