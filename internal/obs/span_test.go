package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestSpanInertWhenOff: span sites must be free (and harmless) with no
// tracer installed.
func TestSpanInertWhenOff(t *testing.T) {
	if old := StopTracing(); old != nil {
		defer curTracer.Store(old)
	}
	if curTracer.Load() != nil {
		t.Fatalf("tracing should be off")
	}
	sp := StartSpan("noop")
	sp.End()
	if sp.t != nil {
		t.Fatalf("span should be inert when tracing is off")
	}
}

// TestTraceEventSchema is the acceptance-criteria schema test: the
// exported JSON must be a valid Chrome trace_event file — an object with
// a traceEvents array whose complete events carry name/cat/ph/ts/pid/tid
// with ph=="X", non-negative microsecond timestamps, and durations.
// This is the shape chrome://tracing and Perfetto's JSON importer load.
func TestTraceEventSchema(t *testing.T) {
	old := StopTracing()
	defer curTracer.Store(old)

	tr := StartTracing()
	root := StartSpan("core.Integrate")
	var wg sync.WaitGroup
	for core := int64(0); core < 4; core++ {
		wg.Add(1)
		go func(core int64) {
			defer wg.Done()
			sp := StartSpanOn(core, "integrate.core")
			sp.End()
		}(core)
	}
	wg.Wait()
	root.End()
	if got := StopTracing(); got != tr {
		t.Fatalf("StopTracing returned %p, want the installed tracer %p", got, tr)
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Decode with a strict schema: unknown/missing fields surface here.
	var f struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  float64  `json:"dur"`
			Pid  *int64   `json:"pid"`
			Tid  *int64   `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("trace JSON does not decode: %v\n%s", err, buf.String())
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	if len(f.TraceEvents) != 5 { // root + 4 shards
		t.Fatalf("got %d events, want 5:\n%s", len(f.TraceEvents), buf.String())
	}
	spans := 0
	tids := map[int64]bool{}
	for _, e := range f.TraceEvents {
		if e.Name == "" || e.Cat == "" || e.Ts == nil || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required field: %+v", e)
		}
		if *e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", e)
		}
		if e.Ph != "X" {
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		spans++
		tids[*e.Tid] = true
	}
	if spans != 5 {
		t.Fatalf("spans=%d", spans)
	}
	if len(tids) != 4 { // per-core tracks 0..3 (the root span shares track 0)
		t.Fatalf("expected 4 distinct tids, got %v", tids)
	}

	// The root span must enclose the shard spans it surrounds.
	var rootTs, rootEnd float64
	for _, e := range f.TraceEvents {
		if e.Name == "core.Integrate" {
			rootTs, rootEnd = *e.Ts, *e.Ts+e.Dur
		}
	}
	for _, e := range f.TraceEvents {
		if e.Name == "integrate.core" && (*e.Ts < rootTs || *e.Ts+e.Dur > rootEnd+1) {
			t.Fatalf("shard span [%v,%v] escapes root [%v,%v]", *e.Ts, *e.Ts+e.Dur, rootTs, rootEnd)
		}
	}
}

// TestWriteTraceEmpty: a tracer with no spans (and even a nil tracer)
// still writes a loadable file.
func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	var tr *Tracer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if evs, ok := f["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Fatalf("empty trace should have an empty traceEvents array: %s", buf.String())
	}
}
