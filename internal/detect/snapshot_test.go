package detect

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// snapshotConfig is the shared template: both detectors in a handoff must
// be built from the same Config, the way fleet shards share one.
func snapshotConfig(capture *[]Verdict) Config {
	return Config{
		Source:   "w0",
		FreqHz:   2_000_000_000,
		Registry: obs.NewRegistry(),
		OnVerdict: func(v Verdict) {
			if capture != nil {
				*capture = append(*capture, v)
			}
		},
	}
}

// script drives n items through d from the shared generator: a stationary
// warmup, a table_lookup slowdown that fires, a recovery that resolves,
// then a second render_reply anomaly — enough lifecycle coverage that a
// state-transfer bug anywhere (window, baseline, active events, counters)
// desynchronizes the streams.
func script(i int) (slowFn string, extra uint64) {
	switch {
	case i < 600:
		return "", 0
	case i < 750:
		return "table_lookup", 9000
	case i < 1100:
		return "", 0
	case i < 1250:
		return "render_reply", 8000
	default:
		return "", 0
	}
}

const scriptLen = 1400

// TestSnapshotStreamEquivalence is the handoff correctness bar: split the
// item series at an arbitrary point, snapshot the detector, restore into
// a fresh one (round-tripped through JSON, the wire encoding handoff
// frames use), continue on the second — and the concatenated verdict
// stream, final stats, and final state must be identical to an unsplit
// run. Swept across split points covering mid-warmup, mid-anomaly with an
// active event, and post-resolution phases.
func TestSnapshotStreamEquivalence(t *testing.T) {
	var want []Verdict
	ref := newTestDetector(t, snapshotConfig(&want))
	gRef := newItemGen(3)
	for i := 0; i < scriptLen; i++ {
		slowFn, extra := script(i)
		ref.Update(gRef.item(int32(i%2), slowFn, extra))
	}
	if ref.Stats().Changepoints < 2 {
		t.Fatalf("script too tame to prove anything: %+v", ref.Stats())
	}

	for _, split := range []int{1, 100, 599, 640, 700, 777, 1105, 1234, 1399} {
		var got []Verdict
		a := newTestDetector(t, snapshotConfig(&got))
		g := newItemGen(3)
		for i := 0; i < split; i++ {
			slowFn, extra := script(i)
			a.Update(g.item(int32(i%2), slowFn, extra))
		}

		snap := a.Snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("split %d: marshal: %v", split, err)
		}
		var decoded Snapshot
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("split %d: unmarshal: %v", split, err)
		}
		if !reflect.DeepEqual(snap, decoded) {
			t.Fatalf("split %d: snapshot does not survive JSON round trip", split)
		}

		b := newTestDetector(t, snapshotConfig(&got))
		if err := b.Restore(decoded); err != nil {
			t.Fatalf("split %d: Restore: %v", split, err)
		}
		for i := split; i < scriptLen; i++ {
			slowFn, extra := script(i)
			b.Update(g.item(int32(i%2), slowFn, extra))
		}

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: verdict stream diverged: got %d verdicts, want %d\ngot  %+v\nwant %+v",
				split, len(got), len(want), got, want)
		}
		if b.Stats() != ref.Stats() {
			t.Fatalf("split %d: stats diverged:\ngot  %+v\nwant %+v", split, b.Stats(), ref.Stats())
		}
		if !reflect.DeepEqual(b.State(), ref.State()) {
			t.Fatalf("split %d: state diverged", split)
		}
		if !reflect.DeepEqual(b.Snapshot(), ref.Snapshot()) {
			t.Fatalf("split %d: final snapshots diverge", split)
		}
	}
}

func TestSnapshotRestoreValidates(t *testing.T) {
	g := newItemGen(5)
	a := newTestDetector(t, snapshotConfig(nil))
	for i := 0; i < 200; i++ {
		a.Update(g.item(0, "", 0))
	}
	snap := a.Snapshot()

	used := newTestDetector(t, snapshotConfig(nil))
	used.Update(g.item(0, "", 0))
	if err := used.Restore(snap); err == nil {
		t.Fatal("Restore overwrote a detector that had consumed items")
	}

	for name, corrupt := range map[string]func(*Snapshot){
		"oversized window": func(s *Snapshot) { s.Window = make([]SnapshotItem, 500) },
		"since_check":      func(s *Snapshot) { s.SinceCheck = 1 << 20 },
		"stats items":      func(s *Snapshot) { s.Stats.Items++ },
		"stats active":     func(s *Snapshot) { s.Stats.Active = 7 },
		"since_rotate":     func(s *Snapshot) { s.Baseline.SinceRotate = -1 },
		"window vs items":  func(s *Snapshot) { s.Items = 1; s.Stats.Items = 1 },
		"dup cell": func(s *Snapshot) {
			s.Baseline.Cur = append(s.Baseline.Cur, s.Baseline.Cur[0])
		},
		"bad histogram": func(s *Snapshot) {
			s.Baseline.Cur[0].Hist.Buckets = []obs.HistBucket{{Index: -1, Count: 1}}
		},
	} {
		var bad Snapshot // decoded fresh so corruption cannot alias snap
		data, _ := json.Marshal(snap)
		if err := json.Unmarshal(data, &bad); err != nil {
			t.Fatalf("%s: deep copy: %v", name, err)
		}
		corrupt(&bad)
		fresh := newTestDetector(t, snapshotConfig(nil))
		if err := fresh.Restore(bad); err == nil {
			t.Fatalf("%s: Restore accepted a corrupt snapshot", name)
		}
	}

	// And the pristine snapshot still restores after all that.
	fresh := newTestDetector(t, snapshotConfig(nil))
	if err := fresh.Restore(snap); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// FuzzDetectorRestore: a snapshot, as a handoff carries it, either fails
// to decode or to Restore, or installs a state whose snapshot → restore →
// snapshot is a byte fixed point. Nothing panics, and a restore allocates
// in proportion to the snapshot. A snapshot names no source, so a failure
// has none to name.
//
//	go test -run '^$' -fuzz '^FuzzDetectorRestore$' ./internal/detect
func FuzzDetectorRestore(f *testing.F) {
	for _, name := range []string{"handoff_source.golden", "handoff_source_v2.golden"} {
		data, err := os.ReadFile("../wire/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		// A THandoffSource payload is a version byte and the JSON row.
		var row struct {
			Detector json.RawMessage `json:"detector"`
		}
		if len(data) == 0 || json.Unmarshal(data[1:], &row) != nil || row.Detector == nil {
			f.Fatalf("%s carries no detector snapshot", name)
		}
		f.Add([]byte(row.Detector))
	}
	restore := func(t *testing.T, data []byte) (*Detector, error) {
		d, err := New(snapshotConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, err
		}
		return d, d.Restore(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d *Detector
		var err error
		alloc := allocatedBy(func() { d, err = restore(t, data) })
		// The costliest input is a run of baseline cells: each restores to
		// a full histogram, about 7.8 kB, from about 22 bytes of JSON.
		if limit := 1<<20 + 1024*uint64(len(data)); alloc > limit {
			t.Fatalf("restoring a %d-byte snapshot allocated %d bytes, want ≤ %d", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		first, err := json.Marshal(d.Snapshot())
		if err != nil {
			t.Fatalf("snapshot of an installed state: %v", err)
		}
		b, err := restore(t, first)
		if err != nil {
			t.Fatalf("restore of a snapshot: %v", err)
		}
		if second, _ := json.Marshal(b.Snapshot()); !bytes.Equal(first, second) {
			t.Fatalf("snapshot → restore → snapshot moved:\n%s\n%s", first, second)
		}
	})
}

// allocatedBy returns the bytes f allocated (runtime.MemStats.TotalAlloc
// delta).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
