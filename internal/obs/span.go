package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: "trace the tracer". When a Tracer is installed
// (StartTracing), instrumented phases of the analyzer — shard fan-out,
// per-core integration, stream flushes, fault injection — record
// complete ("ph":"X") events that export as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. When no tracer is installed
// a span site costs one atomic pointer load and a nil check, so the hot
// paths stay instrumented permanently.

// SpanEvent is one recorded span in the Chrome trace_event "complete
// event" shape. Ts and Dur are microseconds since the tracer started,
// per the trace_event format.
type SpanEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
}

// Tracer accumulates span events. Safe for concurrent use.
type Tracer struct {
	start time.Time
	mu    sync.Mutex
	evs   []SpanEvent
}

// curTracer is the installed tracer; nil means tracing is off.
var curTracer atomic.Pointer[Tracer]

// StartTracing installs (and returns) a fresh tracer; subsequent
// StartSpan calls record into it until StopTracing.
func StartTracing() *Tracer {
	t := &Tracer{start: time.Now()}
	curTracer.Store(t)
	return t
}

// StopTracing uninstalls the current tracer and returns it (nil when
// tracing was off). The returned tracer can still be exported.
func StopTracing() *Tracer {
	return curTracer.Swap(nil)
}

// Span is an in-flight measurement; End records it. The zero Span
// (returned when tracing is off) is inert.
type Span struct {
	t     *Tracer
	name  string
	tid   int64
	since time.Duration
}

// StartSpan opens a span on logical track 0. When tracing is off it
// returns an inert span without reading the clock.
func StartSpan(name string) Span { return StartSpanOn(0, name) }

// StartSpanOn opens a span on the given logical track (rendered as a
// "thread" row in the trace viewer — shard workers pass their core ID so
// the per-core fan-out reads as parallel lanes).
func StartSpanOn(tid int64, name string) Span {
	t := curTracer.Load()
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, since: time.Since(t.start)}
}

// End closes the span and records it. No-op on an inert span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.start)
	s.t.add(SpanEvent{
		Name: s.name,
		Cat:  "fluct",
		Ph:   "X",
		Ts:   float64(s.since.Nanoseconds()) / 1e3,
		Dur:  float64((end - s.since).Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  s.tid,
	})
}

func (t *Tracer) add(e SpanEvent) {
	t.mu.Lock()
	t.evs = append(t.evs, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events, in record order.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.evs))
	copy(out, t.evs)
	return out
}

// traceFile is the Chrome trace_event JSON object form (the array form
// is also legal, but the object form carries displayTimeUnit and is what
// Perfetto's JSON importer documents).
type traceFile struct {
	TraceEvents     []SpanEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// WriteTrace exports the recorded spans as Chrome trace_event JSON.
// On a nil tracer it writes an empty (still valid) trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	f := traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []SpanEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
