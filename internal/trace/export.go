package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/pmu"
)

// This file provides interchange exports of a trace set: CSV for
// spreadsheet-style inspection and JSON Lines for scripting. The binary
// format (io.go) remains the canonical lossless representation; these
// exports resolve IPs to symbol names for human consumption.

// ExportMarkersCSV writes the marker stream as CSV with a header row:
// item,tsc,core,kind.
func (s *Set) ExportMarkersCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"item", "tsc", "core", "kind"}); err != nil {
		return err
	}
	for _, m := range s.Markers {
		rec := []string{
			strconv.FormatUint(m.Item, 10),
			strconv.FormatUint(m.TSC, 10),
			strconv.FormatInt(int64(m.Core), 10),
			m.Kind.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportSamplesCSV writes the sample stream as CSV with a header row:
// tsc,ip,core,event,function. The function column is resolved against the
// set's symbol table ("" when unresolved or no table).
func (s *Set) ExportSamplesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"tsc", "ip", "core", "event", "function"}); err != nil {
		return err
	}
	for i := range s.Samples {
		sm := &s.Samples[i]
		name := ""
		if s.Syms != nil {
			if fn := s.Syms.Resolve(sm.IP); fn != nil {
				name = fn.Name
			}
		}
		rec := []string{
			strconv.FormatUint(sm.TSC, 10),
			"0x" + strconv.FormatUint(sm.IP, 16),
			strconv.FormatInt(int64(sm.Core), 10),
			sm.Event.String(),
			name,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonEvent is the JSONL record shape: a tagged union over markers and
// samples, merged per core in timestamp order when exported via
// ExportJSONL.
type jsonEvent struct {
	Type     string `json:"type"` // "marker" | "sample"
	TSC      uint64 `json:"tsc"`
	Core     int32  `json:"core"`
	Item     uint64 `json:"item,omitempty"`
	Kind     string `json:"kind,omitempty"`
	IP       string `json:"ip,omitempty"`
	Event    string `json:"event,omitempty"`
	Function string `json:"function,omitempty"`
	R13      uint64 `json:"r13,omitempty"`
}

// ExportJSONL writes every event as one JSON object per line, in the input
// order of the set's streams (markers first, then samples). Consumers that
// need a merged timeline sort on (core, tsc).
func (s *Set) ExportJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range s.Markers {
		ev := jsonEvent{Type: "marker", TSC: m.TSC, Core: m.Core, Item: m.Item, Kind: m.Kind.String()}
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	for i := range s.Samples {
		sm := &s.Samples[i]
		ev := jsonEvent{
			Type:  "sample",
			TSC:   sm.TSC,
			Core:  sm.Core,
			IP:    fmt.Sprintf("0x%x", sm.IP),
			Event: sm.Event.String(),
			R13:   sm.Reg(pmu.R13),
		}
		if s.Syms != nil {
			if fn := s.Syms.Resolve(sm.IP); fn != nil {
				ev.Function = fn.Name
			}
		}
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}
