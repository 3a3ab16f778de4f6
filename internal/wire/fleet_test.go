package wire

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/symtab"
)

// testSummary builds a representative fleet summary: two items sharing one
// symbol (the dictionary must dedup it) plus one symbol-free item.
func testSummary() FleetSummary {
	lookup := &symtab.Fn{Name: "table_lookup", Base: 0x1000, Size: 4096, ID: 0}
	render := &symtab.Fn{Name: "render_reply", Base: 0x2000, Size: 2048, ID: 1}
	return FleetSummary{
		Source:      "worker-7",
		FreqHz:      2_400_000_000,
		Sets:        12,
		AbortedSets: 1,
		LostMarkers: 3,
		LostSamples: 40,
		CRCErrors:   2,
		Disconnects: 5,
		MeanConf:    0.875,
		Degraded:    true,
		GapLine:     "gaps: 2 suspect bursts",
		Items: []core.Item{
			{ID: 1, Core: 0, BeginTSC: 100, EndTSC: 900, SampleCount: 8, UnresolvedSamples: 1, Confidence: 1,
				Funcs: []core.FuncSpan{
					{Fn: lookup, Samples: 5, FirstTSC: 120, LastTSC: 700},
					{Fn: render, Samples: 2, FirstTSC: 710, LastTSC: 890},
				}},
			{ID: 2, Core: 1, BeginTSC: 150, EndTSC: 2000, SampleCount: 11, UnresolvedSamples: 0, Confidence: 0.5,
				Funcs: []core.FuncSpan{
					{Fn: lookup, Samples: 11, FirstTSC: 160, LastTSC: 1900},
				}},
			{ID: 3, Core: -1, BeginTSC: 0, EndTSC: 10, SampleCount: 0, UnresolvedSamples: 0, Confidence: 0.25},
		},
	}
}

func TestFleetSummaryRoundTrip(t *testing.T) {
	want := testSummary()
	p, err := AppendFleetSummary(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetSummary(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed summary:\n got %+v\nwant %+v", got, want)
	}
	// Shared symbols stay shared: both items' spans must point at one Fn.
	if got.Items[0].Funcs[0].Fn != got.Items[1].Funcs[0].Fn {
		t.Fatal("decoder duplicated a dictionary symbol across items")
	}
	// The items share one slab, each capped: an append to one item's
	// Funcs must not overwrite the next item's.
	_ = append(got.Items[0].Funcs, core.FuncSpan{Samples: -1})
	if !reflect.DeepEqual(got.Items[1], want.Items[1]) {
		t.Fatal("an append to item 0's spans overwrote item 1's")
	}
}

// TestFleetSummaryLargeRoundTrip: a summary whose spans outgrow a small
// object round-trips with every item's spans capped to length.
func TestFleetSummaryLargeRoundTrip(t *testing.T) {
	fns := []*symtab.Fn{
		{Name: "parse", Base: 0x1000, Size: 2048, ID: 0},
		{Name: "lookup", Base: 0x2000, Size: 4096, ID: 1},
		{Name: "render", Base: 0x4000, Size: 2048, ID: 2},
	}
	want := FleetSummary{Source: "worker-1", FreqHz: 2_000_000_000, Sets: 3, MeanConf: 1}
	spans := 0
	for i := 0; i < 2000; i++ {
		it := core.Item{ID: uint64(i + 1), Core: int32(i % 2), BeginTSC: uint64(i) * 5000, EndTSC: uint64(i)*5000 + 4000, Confidence: 1}
		for j := 0; j < i%4; j++ {
			it.Funcs = append(it.Funcs, core.FuncSpan{Fn: fns[(i+j)%3], Samples: 1 + j, FirstTSC: it.BeginTSC + uint64(j)*1000, LastTSC: it.BeginTSC + uint64(j)*1000 + 900})
			it.SampleCount += 1 + j
		}
		spans += len(it.Funcs)
		want.Items = append(want.Items, it)
	}
	if spans*int(unsafe.Sizeof(core.FuncSpan{})) <= 32<<10 {
		t.Fatalf("%d spans fit a small object", spans)
	}
	p, err := AppendFleetSummary(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFleetSummary(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("round trip changed the summary")
	}
	for i := range got.Items {
		if f := got.Items[i].Funcs; cap(f) != len(f) {
			t.Fatalf("item %d: %d spans with capacity %d", i, len(f), cap(f))
		}
	}
}

// lateSpanSummary is testSummary with a fourth item whose one span ends the
// payload, each of the span's varints one byte long: the span's symbol
// index is the payload's fourth byte from the end.
func lateSpanSummary() FleetSummary {
	fs := testSummary()
	fn := fs.Items[0].Funcs[0].Fn
	fs.Items = append(fs.Items, core.Item{ID: 4, BeginTSC: 20, EndTSC: 30, SampleCount: 1, Confidence: 1,
		Funcs: []core.FuncSpan{{Fn: fn, Samples: 1, FirstTSC: 21, LastTSC: 22}}})
	return fs
}

func TestFleetSummaryTruncationErrors(t *testing.T) {
	p, err := AppendFleetSummary(nil, testSummary())
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix must error — a cut frame can never decode as a
	// shorter valid summary — and fail the check as well.
	for cut := 0; cut < len(p); cut++ {
		if _, err := DecodeFleetSummary(p[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d decoded cleanly", cut, len(p))
		}
		if _, _, err := CheckFleetSummary(p[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d passed the check", cut, len(p))
		}
	}
	// Trailing garbage must error too.
	if _, err := DecodeFleetSummary(append(append([]byte(nil), p...), 0xaa)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
	if _, _, err := CheckFleetSummary(append(append([]byte(nil), p...), 0xaa)); err == nil {
		t.Fatal("trailing byte passed the check")
	}
}

// TestCheckFleetSummary: the check reads the decoder's header and item
// count, catches a fault in the payload's last span, and allocates only
// the header's strings, however many items and spans the payload holds.
func TestCheckFleetSummary(t *testing.T) {
	want := lateSpanSummary()
	p, err := AppendFleetSummary(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	head, n, err := CheckFleetSummary(p)
	if err != nil {
		t.Fatal(err)
	}
	items := want.Items
	want.Items = nil
	if !reflect.DeepEqual(head, want) || n != len(items) {
		t.Fatalf("check read %+v and %d items, want %+v and %d", head, n, want, len(items))
	}
	p[len(p)-4] = 2 // the last span's symbol index, one past the dictionary
	if _, _, err := CheckFleetSummary(p); err == nil || !strings.Contains(err.Error(), "item 3 span 0 references symbol 2 of 2") {
		t.Fatalf("check of an out-of-range last symbol: %v", err)
	}

	large := FleetSummary{Source: "worker-1", FreqHz: 2_000_000_000, GapLine: "gaps: none", MeanConf: 1}
	fn := &symtab.Fn{Name: "lookup", Base: 0x2000, Size: 4096, ID: 1}
	for i := 0; i < 2000; i++ {
		large.Items = append(large.Items, core.Item{ID: uint64(i + 1), EndTSC: 4000, SampleCount: 1, Confidence: 1,
			Funcs: []core.FuncSpan{{Fn: fn, Samples: 1, FirstTSC: 10, LastTSC: 20}}})
	}
	if p, err = AppendFleetSummary(nil, large); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, n, err := CheckFleetSummary(p); err != nil || n != 2000 {
			t.Fatalf("check of the 2,000-item payload: %d items, %v", n, err)
		}
	}); allocs > 2 {
		t.Fatalf("check of a 2,000-item payload made %v allocations, want ≤ 2 (the source and gap line)", allocs)
	}
}

func TestFleetSummaryRejectsInvalid(t *testing.T) {
	bad := []FleetSummary{
		{Source: "", FreqHz: 1},
		{Source: strings.Repeat("x", 256), FreqHz: 1},
		{Source: "w", FreqHz: 1, MeanConf: 1.5},
		{Source: "w", FreqHz: 1, Items: []core.Item{{Confidence: -0.1}}},
		{Source: "w", FreqHz: 1, Items: []core.Item{{Confidence: 1, Funcs: []core.FuncSpan{{Fn: nil}}}}},
	}
	for i, fs := range bad {
		if _, err := AppendFleetSummary(nil, fs); err == nil {
			t.Errorf("case %d: invalid summary encoded cleanly", i)
		}
	}
	// Zero frequency is rejected on decode (an aggregator must never
	// divide by it).
	fs := testSummary()
	fs.FreqHz = 1
	p, err := AppendFleetSummary(nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	p[1+len(fs.Source)] = 0 // freq uvarint (1 encodes as one byte)
	if _, err := DecodeFleetSummary(p); err == nil {
		t.Fatal("zero-frequency summary decoded cleanly")
	}
}
