package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spans are assembled after the run from what the bench recorded at the
// layer boundaries it can see from outside — the load generator's calls,
// the connection taps, the uplink wrapper — and written as Chrome
// trace_event JSON (the shape obs.Tracer.WriteTrace emits, plus args:
// obs spans carry neither a parent nor a set id, and tracing inside the
// program is a later change).

// maxTracedSets bounds the trace file: the first sets of the window are
// written, which is plenty to read a set's anatomy from.
const maxTracedSets = 2000

type spanEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  float64  `json:"dur"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	Args spanArgs `json:"args"`
}

// spanArgs ties a span to its set and to the span that caused it.
type spanArgs struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Set    string `json:"set"`    // source/epoch/set ordinal
}

type spanFile struct {
	TraceEvents     []spanEvent `json:"traceEvents"`
	DisplayTimeUnit string      `json:"displayTimeUnit"`
}

// Track numbers group spans into viewer rows: load generator per worker,
// then the shard side, the uplink wrapper, the aggregator side.
const (
	tidShard   = 10
	tidUplink  = 20
	tidAgg     = 30
	tidLocal   = 1
	spanCat    = "fluctbench"
	spanProcID = 1
)

type spanWriter struct {
	evs  []spanEvent
	next int
}

// add appends one complete span and returns its id.
func (sw *spanWriter) add(name string, tid int, start, end float64, parent int, set string) int {
	sw.next++
	sw.evs = append(sw.evs, spanEvent{
		Name: name, Cat: spanCat, Ph: "X", Ts: start, Dur: max(end-start, 0),
		Pid: spanProcID, Tid: tid, Args: spanArgs{ID: sw.next, Parent: parent, Set: set},
	})
	return sw.next
}

func (sw *spanWriter) write(path string) error {
	data, err := json.Marshal(spanFile{TraceEvents: sw.evs, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fleetSpans lays out each set's life: the root from its start to its
// visibility at the aggregator, and under it the ShipSet call, the wait
// for the shard's ack with the shard-side turnaround (and the uplink
// enqueue inside that), and the wait for the aggregator with its
// turnaround.
func (e *fleetEnv) fleetSpans(out *fleetOutcome) *spanWriter {
	f := e.f
	sw := &spanWriter{}
	type hopKey struct {
		peer string
		seq  uint64
	}
	shardTA := map[hopKey]turnaround{}
	for _, ta := range f.shardTA {
		shardTA[hopKey{ta.peer, ta.seq}] = ta
	}
	aggTA := map[hopKey]turnaround{}
	for _, ta := range f.aggTA {
		aggTA[hopKey{ta.peer, ta.seq}] = ta
	}
	onSum := map[setKey]onSummarySpan{}
	for _, s := range f.onSum {
		if _, dup := onSum[s.key]; !dup {
			onSum[s.key] = s
		}
	}
	n := 0
	for _, r := range out.recs {
		if !r.done {
			continue
		}
		if n++; n > maxTracedSets {
			break
		}
		w := f.workers[r.worker]
		id := fmt.Sprintf("%s/%d/%d", r.key.source, w.sh.Epoch(), r.key.set)
		root := sw.add("set", r.worker+1, us(r.start), us(r.vis), 0, id)
		sw.add("ship.ShipSet", r.worker+1, us(r.start+r.late), us(r.handoff), root, id)
		wait := sw.add("await shard ack", r.worker+1, us(r.handoff), us(r.ack), root, id)
		if ta, ok := shardTA[hopKey{r.key.source, r.seq}]; ok {
			turn := sw.add("collector: SetEnd read → TAck written", tidShard+r.worker, us(ta.read), us(ta.ack), wait, id)
			if s, ok := onSum[r.key]; ok {
				sw.add("agg.Uplink.OnSummary", tidUplink+r.worker, us(s.start), us(s.end), turn, id)
			}
		}
		vis := sw.add("await aggregator ack", r.worker+1, us(r.ack), us(r.vis), root, id)
		if seq, ok := w.shard.vis.seq(r.key); ok {
			if ta, ok := aggTA[hopKey{w.shard.id, seq}]; ok {
				sw.add("aggregator: summary read → TAck written", tidAgg+r.worker, us(ta.read), us(ta.ack), vis, id)
			}
		}
	}
	return sw
}

// localSpans lays out each round's stages under a root per round.
func localSpans(rounds []localRound) *spanWriter {
	sw := &spanWriter{}
	for i, r := range rounds {
		id := fmt.Sprintf("local/0/%d", i+1)
		root := sw.add("round", tidLocal, us(r.start), us(r.reported), 0, id)
		sw.add("dataplane.Run", tidLocal, us(r.start), us(r.ran), root, id)
		sw.add("trace.Set.Encode", tidLocal, us(r.ran), us(r.encoded), root, id)
		sw.add("trace.Decode", tidLocal, us(r.encoded), us(r.decoded), root, id)
		sw.add("core.Integrate", tidLocal, us(r.decoded), us(r.integrated), root, id)
		sw.add("core.FunctionReport+DetectFluctuations", tidLocal, us(r.integrated), us(r.reported), root, id)
	}
	return sw
}
