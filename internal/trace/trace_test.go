package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/symtab"
)

// sameSamples reports whether a and b hold the same samples, registers
// compared by content: Regs is a pointer, so == and slices.Equal compare
// addresses.
func sameSamples(a, b []pmu.Sample) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestMarkRecordsTimestampBeforeCost(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	log := NewMarkerLog(1, 150)
	c.Exec(100)
	log.Mark(c, 7, ItemBegin)
	ms := log.Markers()
	if len(ms) != 1 {
		t.Fatalf("markers = %d, want 1", len(ms))
	}
	if ms[0].TSC != 100 {
		t.Errorf("marker TSC = %d, want 100 (before marking cost)", ms[0].TSC)
	}
	if c.Now() != 250 {
		t.Errorf("clock = %d, want 250 (100 + 150 marker uops)", c.Now())
	}
	if ms[0].Item != 7 || ms[0].Core != 0 || ms[0].Kind != ItemBegin {
		t.Errorf("bad marker %+v", ms[0])
	}
}

func TestMarkersSortedPerCoreByTime(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 2})
	log := NewMarkerLog(2, 1)
	c0, c1 := m.Core(0), m.Core(1)
	c1.Exec(10)
	log.Mark(c1, 1, ItemBegin)
	c0.Exec(500)
	log.Mark(c0, 2, ItemBegin)
	log.Mark(c0, 2, ItemEnd)
	ms := log.Markers()
	if len(ms) != 3 {
		t.Fatalf("markers = %d", len(ms))
	}
	if ms[0].Core != 0 || ms[2].Core != 1 {
		t.Errorf("markers not grouped by core: %+v", ms)
	}
	if log.Count() != 3 {
		t.Errorf("Count = %d", log.Count())
	}
}

func TestBeginEndTieBreak(t *testing.T) {
	// An End and a Begin recorded at the same TSC on one core must sort
	// End-first so back-to-back items remain pairable.
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	log := &MarkerLog{perCore: make([][]Marker, 1)} // zero-cost marking
	log.Mark(c, 1, ItemBegin)
	c.Exec(10)
	log.Mark(c, 1, ItemEnd)
	log.Mark(c, 2, ItemBegin) // same TSC as the End above
	ms := log.Markers()
	if ms[1].Kind != ItemEnd || ms[2].Kind != ItemBegin {
		t.Errorf("tie not broken End-first: %+v", ms)
	}
}

// TestFeedOrder: core by core, by timestamp, markers before samples on a
// shared cycle, set order among equals.
func TestFeedOrder(t *testing.T) {
	s := &Set{
		Markers: []Marker{
			{Core: 1, TSC: 10, Item: 3, Kind: ItemBegin},
			{Core: 0, TSC: 20, Item: 1, Kind: ItemEnd},
			{Core: 0, TSC: 20, Item: 2, Kind: ItemBegin},
			{Core: 0, TSC: 5, Item: 1, Kind: ItemBegin},
		},
		Samples: []pmu.Sample{
			{Core: 0, TSC: 20},
			{Core: 1, TSC: 10},
			{Core: 0, TSC: 7},
			{Core: 0, TSC: 20},
		},
	}
	got := feedWalk(s)
	// ^i is marker i, i is sample i.
	want := []int32{^3, 2, ^1, ^2, 0, 3, ^0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("feed walk = %v, want %v", got, want)
	}
}

func TestKindString(t *testing.T) {
	if ItemBegin.String() != "begin" || ItemEnd.String() != "end" {
		t.Error("Kind.String wrong")
	}
}

func buildSet(t *testing.T) *Set {
	t.Helper()
	m := sim.MustNew(sim.Config{Cores: 2})
	m.Syms.MustRegister("f1", 100)
	m.Syms.MustRegister("f2", 333)
	log := NewMarkerLog(2, 1)
	c := m.Core(0)
	log.Mark(c, 10, ItemBegin)
	c.Exec(50)
	log.Mark(c, 10, ItemEnd)
	samples := []pmu.Sample{
		{TSC: 5, IP: 0x400010, Core: 0, Event: pmu.UopsRetired},
		{TSC: 25, IP: 0x400080, Core: 0, Event: pmu.LLCMisses},
	}
	samples[1].Regs = &[pmu.NumRegs]uint64{pmu.R13: 42}
	return NewSet(m, log, samples)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	set := buildSet(t)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FreqHz != set.FreqHz {
		t.Errorf("freq = %d, want %d", got.FreqHz, set.FreqHz)
	}
	if !reflect.DeepEqual(got.Markers, set.Markers) {
		t.Errorf("markers differ:\n got %+v\nwant %+v", got.Markers, set.Markers)
	}
	if !reflect.DeepEqual(got.Samples, set.Samples) {
		t.Errorf("samples differ:\n got %+v\nwant %+v", got.Samples, set.Samples)
	}
	if got.Syms.Len() != set.Syms.Len() {
		t.Fatalf("symbols = %d, want %d", got.Syms.Len(), set.Syms.Len())
	}
	for _, f := range set.Syms.Fns() {
		g := got.Syms.ByName(f.Name)
		if g == nil || g.Base != f.Base || g.Size != f.Size {
			t.Errorf("symbol %v decoded as %v", f, g)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTATRACE........................"),
		"truncated": append([]byte("FLCTRC01"), 1, 2, 3),
	}
	for name, b := range cases {
		if _, err := Decode(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
}

func TestDecodeRejectsTruncatedValidPrefix(t *testing.T) {
	set := buildSet(t)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{9, 15, 20, len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("decode accepted truncation at %d/%d bytes", cut, len(full))
		}
	}
}

func TestDecodeRejectsBadKindAndEvent(t *testing.T) {
	set := buildSet(t)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the first marker's kind byte: header(8)+freq(8)+nsyms(4)+
	// two syms -> find via brute force: flip every byte one at a time and
	// require decode to either fail or produce internally consistent data.
	for i := 8; i < len(b); i++ {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xff
		s, err := Decode(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		for _, mk := range s.Markers {
			if mk.Kind != ItemBegin && mk.Kind != ItemEnd {
				t.Fatalf("byte %d: decode returned invalid marker kind %d", i, mk.Kind)
			}
		}
		for _, sm := range s.Samples {
			if sm.Event >= pmu.NumEvents {
				t.Fatalf("byte %d: decode returned invalid event %d", i, sm.Event)
			}
		}
	}
}

func TestDecodeStreamMatchesDecode(t *testing.T) {
	set := buildSet(t)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var markers []Marker
	var samples []pmu.Sample
	var gotSyms bool
	freq, err := DecodeStream(bytes.NewReader(data),
		func(tab *symtab.Table) { gotSyms = tab != nil && tab.Len() == set.Syms.Len() },
		func(m Marker) error { markers = append(markers, m); return nil },
		func(s pmu.Sample) error { samples = append(samples, s); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if freq != set.FreqHz || !gotSyms {
		t.Errorf("freq=%d gotSyms=%v", freq, gotSyms)
	}
	if !reflect.DeepEqual(markers, set.Markers) || !reflect.DeepEqual(samples, set.Samples) {
		t.Error("streamed records differ from Decode")
	}
}

func TestDecodeStreamCallbackAborts(t *testing.T) {
	set := buildSet(t)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	abort := errSentinel{}
	n := 0
	_, err := DecodeStream(&buf, nil,
		func(Marker) error { n++; return abort },
		func(pmu.Sample) error { t.Error("samples reached after abort"); return nil })
	if err == nil || n != 1 {
		t.Errorf("abort not propagated: err=%v n=%d", err, n)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "stop" }

func TestCyclesToMicros(t *testing.T) {
	s := &Set{FreqHz: 2_000_000_000}
	if got := s.CyclesToMicros(2000); got != 1 {
		t.Errorf("2000 cy = %v us, want 1", got)
	}
}

// Property: encode→decode is the identity on randomly generated sets.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prop := func(items []uint16, tscs []uint32, ips []uint32, nsym uint8) bool {
		m := sim.MustNew(sim.Config{Cores: 1})
		for i := 0; i < int(nsym%8)+1; i++ {
			m.Syms.MustRegister(string(rune('a'+i)), uint64(i*64+16))
		}
		set := &Set{FreqHz: m.FreqHz(), Syms: m.Syms}
		for i, it := range items {
			if i >= len(tscs) {
				break
			}
			k := ItemBegin
			if i%2 == 1 {
				k = ItemEnd
			}
			set.Markers = append(set.Markers, Marker{Item: uint64(it), TSC: uint64(tscs[i]), Kind: k})
		}
		for i, ip := range ips {
			s := pmu.Sample{TSC: uint64(i), IP: uint64(ip), Event: pmu.Event(i) % pmu.NumEvents}
			if i%3 == 0 {
				var rf [pmu.NumRegs]uint64
				rf[i%16] = uint64(ip)
				s.Regs = pmu.CaptureRegs(&rf)
			}
			set.Samples = append(set.Samples, s)
		}
		var buf bytes.Buffer
		if err := set.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Markers) != len(set.Markers) || len(got.Samples) != len(set.Samples) {
			return false
		}
		return reflect.DeepEqual(got.Markers, set.Markers) && reflect.DeepEqual(got.Samples, set.Samples)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}
