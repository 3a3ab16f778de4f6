package trace

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/pmu"
	"repro/internal/symtab"
)

// FuzzDecode throws arbitrary bytes at the trace decoder: it must never
// panic, and anything it accepts must survive an encode→decode round trip
// and a GapSummary pass. Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzDecode$' ./internal/trace
//
// (make tier2 includes a short smoke).
func FuzzDecode(f *testing.F) {
	tab := symtab.NewTable()
	fn := tab.MustRegister("f", 128)
	seed := &Set{
		FreqHz: 2_000_000_000,
		Syms:   tab,
		Markers: []Marker{
			{Item: 1, TSC: 100, Kind: ItemBegin},
			{Item: 1, TSC: 300, Kind: ItemEnd},
		},
		Samples: []pmu.Sample{{TSC: 200, IP: fn.Base, Event: pmu.UopsRetired}},
	}
	var buf bytes.Buffer
	if err := seed.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:len(buf.Bytes())/2]) // truncated mid-record
	f.Add([]byte("FLCTRC01"))               // magic only
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		var out bytes.Buffer
		if err := s.Encode(&out); err != nil {
			t.Fatalf("decoded set failed to re-encode: %v", err)
		}
		s2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded set failed to decode: %v", err)
		}
		if len(s2.Markers) != len(s.Markers) || len(s2.Samples) != len(s.Samples) {
			t.Fatalf("round trip changed counts: %d/%d markers, %d/%d samples",
				len(s.Markers), len(s2.Markers), len(s.Samples), len(s2.Samples))
		}
		// The health scan must cope with whatever decoded.
		_ = s.GapSummary(pmu.UopsRetired)
	})
}

// FuzzDecodeStream checks the incremental decoder against the materializing
// one on arbitrary input — they share the record walker but not where a
// record lands: same records delivered, same error text, and skipping every
// stream (nil callbacks) judges the input the same way.
func FuzzDecodeStream(f *testing.F) {
	var buf bytes.Buffer
	set := &Set{FreqHz: 1, Markers: []Marker{{Item: 1, TSC: 1, Kind: ItemBegin}},
		Samples: []pmu.Sample{{TSC: 2, IP: 3}, {TSC: 4, Regs: &[pmu.NumRegs]uint64{pmu.R13: 5}}, {TSC: 6}}}
	if err := set.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-9]) // ends inside the last sample
	f.Fuzz(func(t *testing.T, data []byte) {
		full, fullErr := Decode(bytes.NewReader(data))
		var markers []Marker
		var samples []pmu.Sample
		_, streamErr := DecodeStream(bytes.NewReader(data), nil,
			func(m Marker) error { markers = append(markers, m); return nil },
			func(sm pmu.Sample) error { samples = append(samples, sm); return nil })
		_, skipErr := DecodeStream(bytes.NewReader(data), nil, nil, nil)
		if fmt.Sprint(fullErr) != fmt.Sprint(streamErr) || fmt.Sprint(fullErr) != fmt.Sprint(skipErr) {
			t.Fatalf("decoders disagree:\n full   %v\n stream %v\n skip   %v", fullErr, streamErr, skipErr)
		}
		if fullErr == nil && (!slices.Equal(markers, full.Markers) || !sameSamples(samples, full.Samples)) {
			t.Fatalf("stream delivered %d/%d records, full decode holds %d/%d, or they differ",
				len(markers), len(samples), len(full.Markers), len(full.Samples))
		}
	})
}
