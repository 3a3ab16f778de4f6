package agg

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_v2.json from checkpointV2State")

func verdictsFrame(t *testing.T, vs wire.VerdictSet) wire.Frame {
	t.Helper()
	p, err := wire.AppendVerdicts(nil, vs)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Type: wire.TVerdicts, Payload: p}
}

// sendAcked writes each frame on conn and waits for its ack.
func sendAcked(t *testing.T, conn net.Conn, frames ...wire.Frame) {
	t.Helper()
	for _, f := range frames {
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		readAckFrame(t, conn)
	}
}

// fixtureSummary is a small summary row for source: two items with
// function spans, so the payload carries a symbol dictionary.
func fixtureSummary(source string, sets uint64) wire.FleetSummary {
	lookup := &symtab.Fn{Name: "table_lookup", Base: 0x401000, Size: 0x1000, ID: 0}
	render := &symtab.Fn{Name: "render_reply", Base: 0x402000, Size: 0x800, ID: 1}
	items := make([]core.Item, 2)
	for i := range items {
		begin := uint64(10_000 * (i + 1))
		items[i] = core.Item{
			ID: uint64(i + 1), Core: int32(i), BeginTSC: begin, EndTSC: begin + 7_000 + 900*sets,
			Funcs: []core.FuncSpan{
				{Fn: lookup, Samples: 2, FirstTSC: begin + 100, LastTSC: begin + 3_000},
				{Fn: render, Samples: 1, FirstTSC: begin + 4_000, LastTSC: begin + 4_000},
			},
			SampleCount: 3, Confidence: 1,
		}
	}
	return wire.FleetSummary{Source: source, FreqHz: 2_000_000_000, Sets: sets, MeanConf: 1,
		GapLine: "gaps: none", Items: items}
}

// fixtureVerdicts is an open change event on source blaming table_lookup.
func fixtureVerdicts(source string, event uint64) wire.VerdictSet {
	vs := wire.VerdictSet{Source: source, Active: 1}
	for rank, fn := range []string{"table_lookup", "render_reply"} {
		vs.Verdicts = append(vs.Verdicts, detect.Verdict{
			Source: source, Event: event, Rank: rank, Item: 2, Function: fn, Core: 1,
			DeltaNs: int64(4_000 / (rank + 1)), Score: float64(9 - 3*rank),
			Window: detect.Window{FirstItem: 1, LastItem: 2, Items: 2},
		})
	}
	return vs
}

// checkpointV2State builds, through HandleConn, the state the version-2
// fixture holds: two shards; a source with a summary and verdicts, one
// with a summary only, one with verdicts only, and one whose verdicts
// and summary came from different shards.
func checkpointV2State(t *testing.T, path string) *Aggregator {
	t.Helper()
	a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ca := uplinkClient(t, a, "shard-a")
	sendSeqStart(t, ca, 4, 1)
	sendAcked(t, ca,
		summaryFrame(t, fixtureSummary("w-both", 3)),
		verdictsFrame(t, fixtureVerdicts("w-both", 1)),
		verdictsFrame(t, fixtureVerdicts("w-moved", 2)))
	cb := uplinkClient(t, a, "shard-b")
	sendSeqStart(t, cb, 7, 1)
	sendAcked(t, cb,
		summaryFrame(t, fixtureSummary("w-plain", 1)),
		verdictsFrame(t, fixtureVerdicts("w-vonly", 1)),
		summaryFrame(t, fixtureSummary("w-moved", 5)))
	return a
}

// aggState is everything a restore must bring back, rendered for
// comparison.
type aggState struct {
	fleet, verdicts string
	watermarks      map[string][2]uint64
	shards          map[string]string
}

func stateOf(t *testing.T, a *Aggregator) aggState {
	t.Helper()
	st := aggState{watermarks: map[string][2]uint64{}, shards: map[string]string{}}
	v := a.Fleet()
	st.fleet = string(renderFleet(v))
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	st.verdicts = httpGet(t, srv.URL+"/verdicts")
	a.mu.Lock()
	var shardIDs, sourceIDs []string
	for id := range a.shards {
		shardIDs = append(shardIDs, id)
	}
	for id := range a.sources {
		sourceIDs = append(sourceIDs, id)
	}
	a.mu.Unlock()
	for _, id := range shardIDs {
		e, s := a.UpstreamAcked(id)
		st.watermarks[id] = [2]uint64{e, s}
	}
	for _, id := range sourceIDs {
		st.shards[id] = a.SourceShard(id)
	}
	return st
}

func (st aggState) diff(o aggState) string {
	switch {
	case st.fleet != o.fleet:
		return "fleet: " + firstDiff(st.fleet, o.fleet)
	case st.verdicts != o.verdicts:
		return "verdicts: " + firstDiff(st.verdicts, o.verdicts)
	case len(st.watermarks) != len(o.watermarks) || len(st.shards) != len(o.shards):
		return "shard or source count"
	}
	for id, wm := range st.watermarks {
		if o.watermarks[id] != wm {
			return "watermark of " + id
		}
	}
	for id, sh := range st.shards {
		if o.shards[id] != sh {
			return "shard of " + id
		}
	}
	return ""
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restoreFrom writes data to a fresh checkpoint path and opens an
// aggregator on it.
func restoreFrom(t *testing.T, data []byte) (*Aggregator, string, error) {
	t.Helper()
	path := t.TempDir() + "/agg.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	return a, path, err
}

// FuzzAggregatorRestore: a checkpoint file either fails New — naming a
// row's source whenever the file parses into rows — or installs a state
// whose checkpoint → restore → checkpoint is a byte fixed point. Nothing
// panics, and a restore allocates in proportion to the file.
//
//	go test -run '^$' -fuzz '^FuzzAggregatorRestore$' -fuzzminimizetime=1s ./internal/agg
func FuzzAggregatorRestore(f *testing.F) {
	for _, name := range []string{"parent_checkpoint.json", "checkpoint_v2.json"} {
		f.Add(readFile(f, "testdata/"+name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a *Aggregator
		var path string
		var err error
		alloc := allocatedBy(func() { a, path, err = restoreFrom(t, data) })
		if limit := restoreAllocBound(len(data)); alloc > limit {
			t.Fatalf("restoring a %d-byte checkpoint allocated %d bytes, want ≤ %d", len(data), alloc, limit)
		}
		if err == nil {
			if err := a.Checkpoint(); err != nil {
				t.Fatalf("checkpoint of an installed state: %v", err)
			}
			first := readFile(t, path)
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
			return
		}
		ids, ok := checkpointRowIDs(data)
		if ok && !slices.ContainsFunc(ids, func(id string) bool {
			return strings.Contains(err.Error(), fmt.Sprintf("source %q", id))
		}) {
			t.Fatalf("restore of a file that parses failed naming no row's source: %v", err)
		}
	})
}

// checkpointRowIDs returns the source IDs of a checkpoint file's rows, and
// false when the file does not parse as a version restore reads.
func checkpointRowIDs(data []byte) ([]string, bool) {
	var head struct {
		Version int `json:"version"`
	}
	if json.Unmarshal(data, &head) != nil {
		return nil, false
	}
	var ids []string
	switch head.Version {
	case 1:
		var v1 checkpointFileV1
		if json.Unmarshal(data, &v1) != nil {
			return nil, false
		}
		for _, r := range v1.Sources {
			ids = append(ids, r.Summary.ID)
		}
	case checkpointVersion:
		var file checkpointFile
		if json.Unmarshal(data, &file) != nil {
			return nil, false
		}
		for _, cs := range file.Sources {
			ids = append(ids, cs.ID)
		}
	default:
		return nil, false
	}
	return ids, true
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

// restoreAllocBound is what restoring an n-byte checkpoint may allocate: a
// fixed cost for the aggregator itself, and per input byte room for JSON
// decoding and for the items a byte of payload or of version-1 JSON
// decodes to. A count that a header declares and the bytes behind it do
// not back would blow past it.
func restoreAllocBound(n int) uint64 { return 1<<20 + 512*uint64(n) }

// TestRestoreCheckpointV2: the committed version-2 fixture is what this
// code writes for checkpointV2State; it restores to that live state, and
// checkpointing the restored state reproduces it byte for byte.
func TestRestoreCheckpointV2(t *testing.T) {
	livePath := t.TempDir() + "/agg.json"
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

	a, path, err := restoreFrom(t, fixture)
	if err != nil {
		t.Fatal(err)
	}
	if d := stateOf(t, a).diff(stateOf(t, live)); d != "" {
		t.Fatalf("restored state differs from the live one: %s", d)
	}
	if n := a.metMerges.Value(); n != 0 || a.lastMergeNano.Load() != 0 {
		t.Fatalf("restore counted %d merges and set the merge clock to %d", n, a.lastMergeNano.Load())
	}
	if s := a.SourceShard("w-moved"); s != "shard-b" || a.sources["w-moved"].verdictShard != "shard-a" {
		t.Fatalf("w-moved restored from %q, verdicts from %q; want shard-b, shard-a", s, a.sources["w-moved"].verdictShard)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if rewritten := readFile(t, path); !bytes.Equal(rewritten, fixture) {
		t.Fatalf("re-checkpoint moved the encoding: %s", firstDiff(string(rewritten), string(fixture)))
	}
}

// TestRestoreV1Placeholder: a version-1 row with no clock was a verdict
// placeholder whose verdicts version 1 did not keep; it restores as an
// ID-only row, and so does its version-2 checkpoint.
func TestRestoreV1Placeholder(t *testing.T) {
	v1 := `{"version":1,"shards":[{"id":"shard-a","epoch":2,"last_acked":4}],"sources":[` +
		`{"shard":"shard-a","summary":{"id":"w-v","sets":0,"items":0,"mean_confidence":0,"degraded":false}}]}`
	a, path, err := restoreFrom(t, []byte(v1))
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Fleet(); len(v.Sources) != 1 || v.Sources[0] != (collector.SourceSummary{ID: "w-v"}) ||
		a.SourceShard("w-v") != "shard-a" {
		t.Fatalf("restored placeholder %+v from %q", v.Sources, a.SourceShard("w-v"))
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if d := stateOf(t, b).diff(stateOf(t, a)); d != "" {
		t.Fatalf("placeholder's re-checkpoint differs: %s", d)
	}
}

// TestRestoreCorruptPayload: a payload that does not decode fails New
// and names its source; it is never a silent empty start.
func TestRestoreCorruptPayload(t *testing.T) {
	fixture := readFile(t, "testdata/checkpoint_v2.json")
	for _, field := range []string{"summary", "verdicts"} {
		var file checkpointFile
		if err := json.Unmarshal(fixture, &file); err != nil {
			t.Fatal(err)
		}
		cs := &file.Sources[0]
		if cs.ID != "w-both" {
			t.Fatalf("fixture's first source is %q, want w-both", cs.ID)
		}
		p := cs.Summary
		if field == "verdicts" {
			p = cs.Verdicts
		}
		// The last byte ends a varint; setting its continuation bit
		// truncates the payload.
		p[len(p)-1] ^= 0x80
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = restoreFrom(t, data)
		if err == nil || !strings.Contains(err.Error(), `"w-both"`) || !strings.Contains(err.Error(), field) {
			t.Fatalf("flipped %s byte: New returned %v, want an error naming w-both's %s", field, err, field)
		}
	}
}

// TestAggregatorCheckpointDeterministic: shards and sources live in maps,
// and checkpointing one state twice must still write the same bytes.
func TestAggregatorCheckpointDeterministic(t *testing.T) {
	path := t.TempDir() + "/agg.json"
	a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	mergeSynthetic(t, a, 5, 4)
	a.mu.Lock()
	for i, id := range []string{"shard-a", "shard-b", "shard-c"} {
		wm := durable.Restored(uint64(i+1), uint64(10*i))
		a.shards[id] = &wm
	}
	a.mu.Unlock()
	var first []byte
	for i := 0; i < 10; i++ {
		if err := a.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data := readFile(t, path)
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("checkpoint %d of one state differs: %s", i, firstDiff(string(data), string(first)))
		}
	}
}

// raceBuild is set under the race detector (race_test.go). Its sync.Pool
// drops a random quarter of Puts, so encoding/json re-grows its pooled
// buffer at random and allocation counts are noise.
var raceBuild bool

// TestAggregatorCheckpointCostFlat: the checkpoint writes each row's
// payload as it is, so its allocations do not grow with the items a row
// holds.
func TestAggregatorCheckpointCostFlat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are noise under the race detector")
	}
	allocs := func(nItems int) float64 {
		a, err := New(Config{CheckpointPath: t.TempDir() + "/agg.json", Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		mergeSynthetic(t, a, 2, nItems)
		return testing.AllocsPerRun(20, func() {
			if err := a.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(2000); small != large {
		t.Fatalf("checkpoint allocations grow with items: %v at 2×16, %v at 2×2000", small, large)
	}
}

// TestAggregatorRestartKeepsVerdicts: a verdict snapshot the aggregator
// acknowledged survives a bounce — /verdicts, ActiveVerdicts and the
// owning shard read the same before and after, so /healthz cannot turn
// healthy while a change event is still open.
func TestAggregatorRestartKeepsVerdicts(t *testing.T) {
	path := t.TempDir() + "/agg.json"
	a1, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conn := uplinkClient(t, a1, "shard-a")
	sendSeqStart(t, conn, 3, 1)
	sendAcked(t, conn,
		summaryFrame(t, fixtureSummary("w1", 1)),
		verdictsFrame(t, fixtureVerdicts("w1", 1)),
		verdictsFrame(t, fixtureVerdicts("w2", 1)))
	before := stateOf(t, a1)
	if v := a1.Fleet(); len(v.Verdicts) != 4 || v.Sources[0].ActiveVerdicts != 1 || v.Sources[1].ActiveVerdicts != 1 {
		t.Fatalf("before the bounce: %d verdicts, sources %+v", len(v.Verdicts), v.Sources)
	}
	// A crash, not a clean Close: only the checkpoint written before the
	// last ack may carry the verdicts across.
	a1.CloseConns()

	a2, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if d := stateOf(t, a2).diff(before); d != "" {
		t.Fatalf("bounce lost acked state: %s", d)
	}
	if a2.Health().OK {
		t.Fatal("restarted aggregator reads healthy with two change events open")
	}
}
