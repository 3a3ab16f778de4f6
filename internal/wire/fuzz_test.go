package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// FuzzFrameDecode throws arbitrary bytes at the frame reader and the
// payload parsers — the exact path a hostile or half-dead shipper can
// reach on a collector port. Nothing may panic; every frame the reader
// accepts carried a valid checksum; the reader, fed a few bytes per Read,
// and ParseFrameView over the same bytes must return the same frames and
// the same error (checkAgrees); every payload a parser accepts must
// survive an encode → decode round trip with identical records (bytes may
// legitimately differ: varint re-encoding is canonical, arbitrary input
// need not be). Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzFrameDecode$' ./internal/wire
//
// (make tier2 includes a short smoke).
func FuzzFrameDecode(f *testing.F) {
	records := AppendMarkerRun(nil, 0, []trace.Marker{{Item: 1, TSC: 100, Kind: trace.ItemBegin}})
	records = AppendSampleRun(records, 100, []pmu.Sample{{TSC: 200, IP: 0x400000, Event: pmu.UopsRetired}})
	records = AppendMarkerRun(records, 200, []trace.Marker{{Item: 1, TSC: 300, Kind: trace.ItemEnd}})
	f.Add(AppendFrame(nil, Frame{Type: TRecords, Payload: records}))
	f.Add(AppendFrame(nil, Frame{Type: TRecords, Payload: records[:len(records)-2]}))
	f.Add(AppendFrame(nil, Frame{Type: TMarkers, Payload: records[1:]})) // a retired batch type
	f.Add(AppendFrame(nil, Frame{Type: TSetEnd, Payload: AppendSetEnd(nil, SetEnd{Markers: 2, Samples: 1})}))
	hello, _ := AppendHello(nil, Hello{MinVersion: 1, MaxVersion: 1, Source: "fuzz"})
	f.Add(AppendFrame(nil, Frame{Type: THello, Payload: hello}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add(AppendFrame(nil, Frame{Type: TAck, Payload: AppendAck(nil, Ack{Epoch: 7, Seq: 40, Applied: 52})}))
	f.Add(AppendFrame(nil, Frame{Type: TAck, Payload: []byte{7, 40}})) // version-2 ack, no resume line: rejected

	pool := NewFramePool(obs.NewRegistry())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgrees(t, pool, data, iotest.HalfReader(bytes.NewReader(data)), "fuzz input")
		fr, err := pool.NewReader(bytes.NewReader(data)).Next()
		if err != nil {
			ok := err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, ErrChecksum) || err.Error() != ""
			if !ok {
				t.Fatalf("unclassifiable frame error: %v", err)
			}
			return
		}
		defer fr.Release()
		switch fr.Type {
		case TRecords:
			recs, err := iterRecords(fr.Payload)
			if err != nil {
				return
			}
			// Re-encode run for run, one record to a run: the worst case
			// for the ΔTSC chain.
			var re []byte
			var base uint64
			for _, r := range recs {
				if r.kind == TMarkers {
					re, base = AppendMarkerRun(re, base, []trace.Marker{r.m}), r.m.TSC
				} else {
					re, base = AppendSampleRun(re, base, []pmu.Sample{r.s}), r.s.TSC
				}
			}
			back, err := iterRecords(re)
			if err != nil {
				t.Fatalf("accepted records failed to re-decode: %v", err)
			}
			if !reflect.DeepEqual(recs, back) {
				t.Fatal("records round trip changed records")
			}
		case TSymtab:
			freq, tab, err := DecodeSymtab(fr.Payload)
			if err != nil {
				return
			}
			re, err := AppendSymtab(nil, freq, tab)
			if err != nil {
				t.Fatalf("accepted symtab failed to re-encode: %v", err)
			}
			freq2, tab2, err := DecodeSymtab(re)
			if err != nil || freq2 != freq || tab2.Len() != tab.Len() {
				t.Fatalf("symtab round trip changed table (err %v)", err)
			}
		case TSetEnd:
			e, err := DecodeSetEnd(fr.Payload)
			if err != nil {
				return
			}
			e2, err := DecodeSetEnd(AppendSetEnd(nil, e))
			if err != nil || e2 != e {
				t.Fatalf("setend round trip changed counts (err %v)", err)
			}
		case THello:
			h, err := DecodeHello(fr.Payload)
			if err != nil {
				return
			}
			re, err := AppendHello(nil, h)
			if err != nil {
				t.Fatalf("accepted hello failed to re-encode: %v", err)
			}
			h2, err := DecodeHello(re)
			if err != nil || h2 != h {
				t.Fatalf("hello round trip changed fields (err %v)", err)
			}
		case THelloAck:
			a, err := DecodeHelloAck(fr.Payload)
			if err != nil {
				return
			}
			a2, err := DecodeHelloAck(AppendHelloAck(nil, a))
			if err != nil || a2 != a {
				t.Fatalf("helloack round trip changed fields (err %v)", err)
			}
		case TAck:
			a, err := DecodeAck(fr.Payload)
			if err != nil {
				return
			}
			a2, err := DecodeAck(AppendAck(nil, a))
			if err != nil || a2 != a {
				t.Fatalf("ack round trip changed fields (err %v)", err)
			}
		}
	})
}

// FuzzFleetMerge throws arbitrary bytes at the fleet-summary decoder — the
// collector→aggregator hop's payload parser, reachable by any process that
// can dial the aggregator port. Corrupt or truncated input must error,
// never panic; anything the decoder accepts must survive an encode →
// decode round trip with an identical summary (differential check: the
// re-encode is canonical, so surviving it proves the decoder built a
// self-consistent structure, not garbage that happened not to crash).
// CheckFleetSummary, which the aggregator admits frames with, is diffed
// against the decoder: it accepts exactly what the decoder accepts, with
// the same header and the decoder's item count. WalkFleetSummary, which a
// fleet read merges with, must show a visitor exactly the decoder's items,
// spans included, in order. Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzFleetMerge$' ./internal/wire
//
// (make tier2 includes a short smoke).
func FuzzFleetMerge(f *testing.F) {
	seed, err := AppendFleetSummary(nil, testSummary())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])         // truncated mid-structure
	f.Add(seed[:1+len("worker-7")+3]) // header only
	empty, err := AppendFleetSummary(nil, FleetSummary{Source: "s", FreqHz: 1_000_000})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte{0x01, 'x', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // absurd counters
	// Faults that come only after every item but the last has parsed.
	late := lateSpanSummary()
	bad, err := AppendFleetSummary(nil, late)
	if err != nil {
		f.Fatal(err)
	}
	bad[len(bad)-4] = 2 // the last span's symbol index, one past the dictionary
	f.Add(bad)
	good, err := AppendFleetSummary(nil, late)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(good, 0)) // one trailing byte

	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := DecodeFleetSummary(data)
		head, n, cerr := CheckFleetSummary(data)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("decode and check disagree: decode error %v, check error %v", err, cerr)
		}
		if err != nil {
			return // rejection is always acceptable; panics are not
		}
		if n != len(fs.Items) || head.Items != nil {
			t.Fatalf("check counted %d items (holding %d), decode %d", n, len(head.Items), len(fs.Items))
		}
		if want := (FleetSummary{Source: fs.Source, FreqHz: fs.FreqHz, Sets: fs.Sets, AbortedSets: fs.AbortedSets,
			LostMarkers: fs.LostMarkers, LostSamples: fs.LostSamples, CRCErrors: fs.CRCErrors, Disconnects: fs.Disconnects,
			MeanConf: fs.MeanConf, Degraded: fs.Degraded, GapLine: fs.GapLine}); !reflect.DeepEqual(head, want) {
			t.Fatalf("check header differs from decode's:\n got %+v\nwant %+v", head, want)
		}
		seen, spans := 0, 0
		for _, it := range fs.Items {
			spans += len(it.Funcs)
		}
		if _, n, m, err := WalkFleetSummary(data, func(freq uint64, it core.Item) {
			if freq != fs.FreqHz || seen >= len(fs.Items) || !reflect.DeepEqual(it, fs.Items[seen]) {
				t.Fatalf("walk item %d at %d Hz differs from decode's", seen, freq)
			}
			seen++
		}); err != nil || n != len(fs.Items) || seen != n || m != spans {
			t.Fatalf("walk counted %d items and %d spans and showed %d items, decode %d and %d: %v", n, m, seen, len(fs.Items), spans, err)
		}
		re, err := AppendFleetSummary(nil, fs)
		if err != nil {
			t.Fatalf("accepted summary failed to re-encode: %v", err)
		}
		back, err := DecodeFleetSummary(re)
		if err != nil {
			t.Fatalf("re-encoded summary failed to decode: %v", err)
		}
		if !reflect.DeepEqual(fs, back) {
			t.Fatalf("fleet summary round trip changed fields:\n got %+v\nwant %+v", back, fs)
		}
	})
}
