package collector

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_v2.json from checkpointV2State")

// raceBuild is set under the race detector (race_test.go). Its sync.Pool
// drops a random quarter of Puts, so encoding/json re-grows its pooled
// buffer at random and allocation counts are noise.
var raceBuild bool

// feedSet applies set to the source id as one complete delivery.
func feedSet(t testing.TB, c *Collector, id string, set *trace.Set) *Source {
	t.Helper()
	src := c.source(id)
	src.mu.Lock()
	src.everConnected = true
	src.mu.Unlock()
	for _, fr := range rawSetFrames(t, set) {
		if err := c.frame(src, fr); err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// checkpointV2State builds the state testdata/checkpoint_v2.json records
// and checkpoints it to path: a source with items, a connected source
// that never completed a set, a drained source (frozen, handed off, with
// a redirect and the imported trio), and an internal handoff-peer row.
func checkpointV2State(t *testing.T, path string) *Collector {
	t.Helper()
	c, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	set := workloadSet(t, 40)
	w1 := feedSet(t, c, "w1", set)
	w1.mu.Lock()
	w1.wm = durable.Restored(77, 5)
	w1.mu.Unlock()

	w2 := c.source("w2")
	w2.mu.Lock()
	w2.everConnected = true
	w2.wm = durable.Restored(3, 0)
	w2.mu.Unlock()

	w3 := feedSet(t, c, "w3", set)
	w3.mu.Lock()
	w3.wm = durable.Restored(4, 12)
	w3.frozen, w3.handedOff = true, true
	w3.redirect = []string{"shard-b"}
	w3.imported, w3.importedEpoch, w3.importedSeq = true, 2, 8
	w3.mu.Unlock()

	peer := c.source(wire.HandoffPeerPrefix + "shard-a")
	peer.mu.Lock()
	peer.everConnected = true
	peer.wm = durable.Restored(6, 9)
	peer.mu.Unlock()

	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return c
}

// restoredDiff compares what a restart must carry over between two
// collectors: the fleet view, and per source the watermarks, counters,
// drain flags and rendered items. It returns "" when they agree.
func restoredDiff(a, b *Collector) string {
	av, _ := json.Marshal(a.Fleet())
	bv, _ := json.Marshal(b.Fleet())
	if !bytes.Equal(av, bv) {
		return "fleet view " + firstDiff(string(bv), string(av))
	}
	as, bs := sortedSources(a), sortedSources(b)
	if len(as) != len(bs) {
		return fmt.Sprintf("%d sources vs %d", len(as), len(bs))
	}
	for i := range as {
		x, y := as[i], bs[i]
		if x.ID != y.ID {
			return fmt.Sprintf("source %q vs %q", x.ID, y.ID)
		}
		x.mu.Lock()
		xs := fmt.Sprintf("%+v %+v %v/%v/%v/%v/%v/%v/%v", x.stateLocked(), x.wm,
			x.internal, x.frozen, x.handedOff, x.redirect, x.imported, x.importedEpoch, x.importedSeq)
		x.mu.Unlock()
		y.mu.Lock()
		ys := fmt.Sprintf("%+v %+v %v/%v/%v/%v/%v/%v/%v", y.stateLocked(), y.wm,
			y.internal, y.frozen, y.handedOff, y.redirect, y.imported, y.importedEpoch, y.importedSeq)
		y.mu.Unlock()
		if xs != ys {
			return fmt.Sprintf("source %q: %s", x.ID, firstDiff(ys, xs))
		}
		var xi, yi bytes.Buffer
		RenderItems(&xi, x.FreqHz(), x.Items())
		RenderItems(&yi, y.FreqHz(), y.Items())
		if !bytes.Equal(xi.Bytes(), yi.Bytes()) {
			return fmt.Sprintf("source %q items: %s", x.ID, firstDiff(yi.String(), xi.String()))
		}
	}
	return ""
}

func sortedSources(c *Collector) []*Source {
	srcs := c.sourceList()
	slices.SortFunc(srcs, func(x, y *Source) int { return strings.Compare(x.ID, y.ID) })
	return srcs
}

// TestRestoreCheckpointV2: the committed version-2 fixture is what this
// code writes for checkpointV2State; it restores to that live state, and
// checkpointing the restored state reproduces it byte for byte.
func TestRestoreCheckpointV2(t *testing.T) {
	livePath := t.TempDir() + "/checkpoint.json"
	live := checkpointV2State(t, livePath)
	written := readFile(t, livePath)
	if *update {
		if err := os.WriteFile("testdata/checkpoint_v2.json", written, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture := readFile(t, "testdata/checkpoint_v2.json")
	if !bytes.Equal(written, fixture) {
		t.Fatalf("checkpoint of the fixture state moved (rerun with -update if on purpose): %s",
			firstDiff(string(written), string(fixture)))
	}

	c, path, err := restoreFrom(t, fixture)
	if err != nil {
		t.Fatal(err)
	}
	if d := restoredDiff(live, c); d != "" {
		t.Fatalf("restored state differs from the live one: %s", d)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rewritten := readFile(t, path); !bytes.Equal(rewritten, fixture) {
		t.Fatalf("re-checkpoint moved the encoding: %s", firstDiff(string(rewritten), string(fixture)))
	}
}

// TestRestoreParentCheckpointV2: a version-2 file the parent wrote for
// checkpointV2State, symbol tables in its rows, restores to that live
// state, and checkpointing it writes today's fixture: the rows lose only
// their symbols.
func TestRestoreParentCheckpointV2(t *testing.T) {
	live := checkpointV2State(t, t.TempDir()+"/checkpoint.json")
	c, path, err := restoreFrom(t, readFile(t, "testdata/parent_checkpoint_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if d := restoredDiff(live, c); d != "" {
		t.Fatalf("restored state differs from the live one: %s", d)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fixture := readFile(t, "testdata/checkpoint_v2.json")
	if rewritten := readFile(t, path); !bytes.Equal(rewritten, fixture) {
		t.Fatalf("re-checkpoint is not today's fixture: %s", firstDiff(string(rewritten), string(fixture)))
	}
}

// FuzzCollectorRestore: a checkpoint file either fails New — naming the
// row's source when the file parses — or restores a state whose
// checkpoint → restore → checkpoint is a byte fixed point. Run
// continuously with
//
//	go test -run '^$' -fuzz '^FuzzCollectorRestore$' ./internal/collector
func FuzzCollectorRestore(f *testing.F) {
	for _, name := range []string{"parent_checkpoint.json", "parent_checkpoint_v2.json", "checkpoint_v2.json"} {
		f.Add(readFile(f, "testdata/"+name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, _, err := restoreFrom(t, data)
		if err == nil {
			checkpointFixedPoint(t, c)
			return
		}
		var file checkpointFile
		if json.Unmarshal(data, &file) != nil || (file.Version != 1 && file.Version != checkpointVersion) {
			return
		}
		if !slices.ContainsFunc(file.Sources, func(cs checkpointSource) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("source %q", cs.ID))
		}) {
			t.Fatalf("restore failed naming no row's source: %v", err)
		}
	})
}

// checkpointFixedPoint asserts that c checkpoints, and that the state its
// checkpoint restores checkpoints to the same bytes.
func checkpointFixedPoint(t *testing.T, c *Collector) {
	t.Helper()
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of an installed state: %v", err)
	}
	first := readFile(t, c.cfg.CheckpointPath)
	b, path, err := restoreFrom(t, first)
	if err != nil {
		t.Fatalf("restore of a checkpoint: %v", err)
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of a restored state: %v", err)
	}
	if second := readFile(t, path); !bytes.Equal(first, second) {
		t.Fatalf("checkpoint → restore → checkpoint moved: %s", firstDiff(string(second), string(first)))
	}
}

// TestRestoreRejectsBadRow: a version-2 row whose payload does not decode,
// or names another source or clock, fails New with an error naming the
// source; a restore never silently starts without the items it acked.
func TestRestoreRejectsBadRow(t *testing.T) {
	fixture := readFile(t, "testdata/checkpoint_v2.json")
	reencode := func(t *testing.T, p []byte, edit func(*wire.FleetSummary)) []byte {
		t.Helper()
		fs, err := wire.DecodeFleetSummary(p)
		if err != nil {
			t.Fatal(err)
		}
		edit(&fs)
		out, err := wire.AppendFleetSummary(nil, fs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		edit func(t *testing.T, p []byte) []byte
	}{
		{"flipped byte", func(t *testing.T, p []byte) []byte {
			// The last byte ends a varint; setting its continuation bit
			// truncates the payload.
			p[len(p)-1] ^= 0x80
			return p
		}},
		{"other source", func(t *testing.T, p []byte) []byte {
			return reencode(t, p, func(fs *wire.FleetSummary) { fs.Source = "w9" })
		}},
		{"other clock", func(t *testing.T, p []byte) []byte {
			return reencode(t, p, func(fs *wire.FleetSummary) { fs.FreqHz++ })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var file checkpointFile
			if err := json.Unmarshal(fixture, &file); err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(file.Sources, func(cs checkpointSource) bool { return cs.ID == "w1" })
			if i < 0 || len(file.Sources[i].Summary) == 0 {
				t.Fatal("fixture has no w1 row with items")
			}
			cs := &file.Sources[i]
			cs.Summary = tc.edit(t, cs.Summary)
			data, err := json.Marshal(file)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := restoreFrom(t, data); err == nil || !strings.Contains(err.Error(), `"w1"`) {
				t.Fatalf("New returned %v, want an error naming w1", err)
			}
		})
	}
}

// TestRestoredItemsShareSymbols: a restored or imported source's spans
// share one *symtab.Fn per function, so a FunctionReport over its items
// has one row per function — the rows it had before the restart —
// whichever way the items arrived: a version-1 row's JSON, a version-2
// row's payload, or a handoff's payload.
func TestRestoredItemsShareSymbols(t *testing.T) {
	set := workloadSet(t, 40)
	want := functionReport(t, set)
	if n := strings.Count(want, "\n"); n != 2 {
		t.Fatalf("the workload's report has %d rows, want 2:\n%s", n, want)
	}
	check := func(t *testing.T, c *Collector) { checkFunctionReport(t, c, "w1", want) }

	t.Run("v1", func(t *testing.T) {
		c, _, err := restoreFrom(t, readFile(t, "testdata/parent_checkpoint.json"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, c)
	})
	t.Run("v2", func(t *testing.T) {
		path := t.TempDir() + "/checkpoint.json"
		a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		feedSet(t, a, "w1", set)
		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		check(t, b)
	})
	t.Run("handoff", func(t *testing.T) {
		a, err := New(Config{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		feedSet(t, a, "w1", set)
		path := t.TempDir() + "/checkpoint.json"
		b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if ack, err := importPayload(b, exportPayload(t, a, "w1")); err != nil || ack.Disposition != wire.HandoffInstalled {
			t.Fatalf("import: %v, %v; want installed", ack.Disposition, err)
		}
		check(t, b)
		// The import's items reach the importer's checkpoint.
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		again, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		check(t, again)
	})
}

// TestRestoreMidSet: a source whose next set has begun — its shipper
// redeployed with another symbol table and clock — checkpoints the last
// completed set's items beside the clock they were integrated against, so
// a restart restores them. A row an older writer recorded mid-set (the
// open set's symbol table beside the JSON items), restored from a
// version-1 file or imported from a version-1 handoff, keeps its items
// too: the table is not read.
func TestRestoreMidSet(t *testing.T) {
	set := workloadSet(t, 40)
	want := functionReport(t, set)
	redeployed := json.RawMessage(`[{"name":"parse_request","size":512},{"name":"table_lookup","size":8192}]`)
	// check asserts c holds the set's items, each function one pointer,
	// and that they survive one more checkpoint and restore.
	check := func(t *testing.T, c *Collector) {
		t.Helper()
		checkFunctionReport(t, c, "w1", want)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{CheckpointPath: c.cfg.CheckpointPath, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		checkFunctionReport(t, b, "w1", want)
	}
	// redeploy feeds a's source w1 the TSymtab of a redeployed shipper.
	redeploy := func(t *testing.T, a *Collector) {
		t.Helper()
		tab := symtab.NewTable()
		tab.MustRegister("parse_request", 512)
		tab.MustRegister("table_lookup", 8192)
		symPayload, err := wire.AppendSymtab(nil, 2*set.FreqHz, tab)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.frame(a.Source("w1"), wire.Frame{Type: wire.TSymtab, Payload: symPayload}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("checkpoint", func(t *testing.T) {
		a, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		feedSet(t, a, "w1", set)
		redeploy(t, a)
		check(t, a)
	})
	t.Run("v1", func(t *testing.T) {
		var file struct {
			Version int                          `json:"version"`
			Sources []map[string]json.RawMessage `json:"sources"`
		}
		if err := json.Unmarshal(readFile(t, "testdata/parent_checkpoint.json"), &file); err != nil {
			t.Fatal(err)
		}
		for _, row := range file.Sources {
			row["symbols"] = redeployed
		}
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := restoreFrom(t, data)
		if err != nil {
			t.Fatal(err)
		}
		check(t, c)
	})
	t.Run("handoff", func(t *testing.T) {
		a, err := New(Config{Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		feedSet(t, a, "w1", set)
		hs, err := wire.DecodeHandoffSource(exportPayload(t, a, "w1"))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := wire.DecodeFleetSummary(hs.Summary)
		if err != nil {
			t.Fatal(err)
		}
		// The row as a version-1 drainer wrote it: JSON items, the open
		// set's table.
		hs.Items, hs.Summary = fs.Items, nil
		row, err := json.Marshal(hs)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(row, &fields); err != nil {
			t.Fatal(err)
		}
		fields["symbols"] = redeployed
		if row, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if ack, err := importPayload(b, append([]byte{1}, row...)); err != nil || ack.Disposition != wire.HandoffInstalled {
			t.Fatalf("import: %v, %v; want installed", ack.Disposition, err)
		}
		check(t, b)
	})
}

// functionReport renders the FunctionReport of set integrated locally.
func functionReport(t *testing.T, set *trace.Set) string {
	t.Helper()
	local, err := core.Integrate(set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return functionRows(local.FreqHz, local.Items)
}

// checkFunctionReport asserts c's source id holds items whose function
// report is want, each function one *symtab.Fn.
func checkFunctionReport(t *testing.T, c *Collector, id, want string) {
	t.Helper()
	src := c.Source(id)
	if src == nil {
		t.Fatalf("source %q missing", id)
	}
	if got := functionRows(src.FreqHz(), src.Items()); got != want {
		t.Fatalf("function report:\n%s\nwant:\n%s", got, want)
	}
	own := map[string]*symtab.Fn{}
	for _, it := range src.Items() {
		for _, sp := range it.Funcs {
			if fn, ok := own[sp.Fn.Name]; ok && fn != sp.Fn {
				t.Fatalf("item %d: function %q is not shared", it.ID, sp.Fn.Name)
			}
			own[sp.Fn.Name] = sp.Fn
		}
	}
}

// exportPayload freezes a's source id and returns its THandoffSource
// payload.
func exportPayload(t *testing.T, a *Collector, id string) []byte {
	t.Helper()
	if _, err := a.FreezeSource(id, []string{"shard-b"}, time.Second); err != nil {
		t.Fatal(err)
	}
	hs, err := a.ExportSource(id)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.AppendHandoffSource(nil, hs)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// importPayload applies a THandoffSource payload to c as a drainer's peer
// stream delivers it.
func importPayload(c *Collector, payload []byte) (wire.HandoffAck, error) {
	return c.applyHandoffSource(c.source(wire.HandoffPeerPrefix+"shard-a"), payload)
}

// functionRows renders the FunctionReport over items, one line per row.
func functionRows(freq uint64, items []core.Item) string {
	var b strings.Builder
	for _, r := range core.FunctionReport(&core.Analysis{FreqHz: freq, Items: items}) {
		fmt.Fprintf(&b, "%s %d/%d mean %.3f max %.3f ratio %.3f\n", r.Fn.Name,
			r.EstimableItems, r.TotalItems, r.PerItemUs.Mean, r.PerItemUs.Max, r.FluctuationRatio)
	}
	return b.String()
}

// TestCheckpointRefusesUnencodableItems: a set whose items do not encode
// fails every checkpoint, naming the source, until a set that encodes
// replaces it; the checkpoint never writes the row without its items.
func TestCheckpointRefusesUnencodableItems(t *testing.T) {
	path := t.TempDir() + "/checkpoint.json"
	c, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	frames := rawSetFrames(t, workloadSet(t, 4))
	src := c.source("w1")
	feedUnencodableSet(t, c, src, frames)
	if err := c.Checkpoint(); err == nil || !strings.Contains(err.Error(), `"w1"`) {
		t.Fatalf("checkpoint returned %v, want an error naming w1", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed checkpoint left a file behind (stat: %v)", err)
	}
	for _, fr := range frames {
		if err := c.frame(src, fr); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after a good set: %v", err)
	}
}

// TestExportRefusesUnencodableItems: a handoff export of such a set fails
// naming the source, as the checkpoint does, on a collector without a
// checkpoint path too.
func TestExportRefusesUnencodableItems(t *testing.T) {
	c, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	feedUnencodableSet(t, c, c.source("w1"), rawSetFrames(t, workloadSet(t, 4)))
	if _, err := c.FreezeSource("w1", []string{"shard-b"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExportSource("w1"); err == nil || !strings.Contains(err.Error(), `"w1"`) {
		t.Fatalf("export returned %v, want an error naming w1", err)
	}
}

// feedUnencodableSet applies one set's frames to src with an item the
// integrator never produces, confidence outside [0,1], added before the
// set closes: the set's items do not encode.
func feedUnencodableSet(t *testing.T, c *Collector, src *Source, frames []wire.Frame) {
	t.Helper()
	for _, fr := range frames[:len(frames)-1] {
		if err := c.frame(src, fr); err != nil {
			t.Fatal(err)
		}
	}
	src.applyMu.Lock()
	src.curItem = append(src.curItem, core.Item{ID: 99, Confidence: 2})
	src.applyMu.Unlock()
	if err := c.frame(src, frames[len(frames)-1]); err != nil {
		t.Fatal(err)
	}
}

// checkpointShape builds a collector holding sources × items.
func checkpointShape(t testing.TB, sources, items int) *Collector {
	t.Helper()
	c, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	set := workloadSet(t, items)
	for i := 0; i < sources; i++ {
		feedSet(t, c, fmt.Sprintf("w%03d", i), set)
	}
	return c
}

// TestCollectorCheckpointCostFlat: the checkpoint writes each source's
// payload as it is, into a buffer it keeps, so neither its allocations nor
// the bytes they take grow with the items a source holds.
func TestCollectorCheckpointCostFlat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are noise under the race detector")
	}
	cost := func(nItems int) (allocs, bytes uint64) {
		c := checkpointShape(t, 2, nItems)
		return perRun(20, func() {
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs, smallBytes := cost(16)
	largeAllocs, largeBytes := cost(2000)
	if smallAllocs != largeAllocs {
		t.Fatalf("checkpoint allocations grow with items: %v at 2×16, %v at 2×2000", smallAllocs, largeAllocs)
	}
	if largeBytes > smallBytes+4<<10 {
		t.Fatalf("checkpoint bytes grow with items: %d B at 2×16, %d B at 2×2000", smallBytes, largeBytes)
	}
}

// perRun is testing.AllocsPerRun that also reports bytes: the mallocs and
// the bytes allocated per call of f, averaged over runs calls after a
// warm-up call, all on one P. A sync.Pool keeps a slot per P that no
// other P takes from, so a buffer encoding/json pooled before the switch
// to one P may be out of reach after it: the warm-up comes after the
// switch.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkCollectorCheckpoint measures one checkpoint at the two shapes
// the fleet benchmark stresses: many sources with small sets, and few
// sources with large ones.
func BenchmarkCollectorCheckpoint(b *testing.B) {
	for _, shape := range []struct{ sources, items int }{{130, 16}, {2, 2000}} {
		b.Run(fmt.Sprintf("%dx%d", shape.sources, shape.items), func(b *testing.B) {
			c := checkpointShape(b, shape.sources, shape.items)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreFrom writes data to a fresh checkpoint path and opens a
// collector on it.
func restoreFrom(t testing.TB, data []byte) (*Collector, string, error) {
	t.Helper()
	path := t.TempDir() + "/checkpoint.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	return c, path, err
}
