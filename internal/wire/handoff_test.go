package wire

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/trace"
)

func testHandoffBegin() HandoffBegin {
	return HandoffBegin{
		Shard:   "shard-a",
		Members: []string{"shard-b", "shard-c"},
		Sources: 12,
	}
}

// testHandoffSource builds a representative moved-source state: watermark,
// a reconstructed item as the summary payload, cumulative counters, and a
// detector snapshot with baseline cells — every field class the importer
// installs.
func testHandoffSource() *HandoffSource {
	hs := testHandoffSourceV1()
	summary, err := AppendFleetSummary(nil, FleetSummary{Source: hs.Source, FreqHz: hs.FreqHz, Items: hs.Items})
	if err != nil {
		panic(err)
	}
	hs.Items, hs.Summary = nil, summary
	return hs
}

// testHandoffSourceV1 is testHandoffSource as version 1 carried it, the
// item as JSON: the state testdata/handoff_source.golden was written from.
func testHandoffSourceV1() *HandoffSource {
	fn := &symtab.Fn{Name: "table_lookup", Base: 0x1000, Size: 0x200, ID: 0}
	return &HandoffSource{
		Source: "worker-3",
		SourceState: SourceState{
			Epoch:     7,
			LastAcked: 4211,
			FreqHz:    2_000_000_000,
			Items: []core.Item{{
				ID: 99, Core: 2, BeginTSC: 1 << 20, EndTSC: 1<<20 + 9000,
				Funcs: []core.FuncSpan{
					{Fn: fn, Samples: 4, FirstTSC: 1<<20 + 100, LastTSC: 1<<20 + 8100},
				},
				SampleCount: 4, Confidence: 1,
			}},
			Gaps:          trace.Gaps{},
			Diag:          core.Diagnostics{UnattributedSamples: 3},
			Sets:          41,
			AbortedSets:   1,
			Frames:        160,
			CRCErrors:     2,
			Disconnects:   1,
			LostMarkers:   5,
			LostSamples:   9,
			ConfSum:       40.25,
			ConfN:         41,
			LastMeanConf:  0.98,
			LastDegraded:  false,
			EverConnected: true,
		},
		Verdicts: []detect.Verdict{{
			Source: "worker-3", Event: 2, Rank: 0, Item: 412, Function: "table_lookup",
			Core: 2, DeltaNs: 4500, Score: 11.25,
			Window: detect.Window{FirstItem: 380, LastItem: 412, Items: 33},
		}},
		ActiveVerdicts: 1,
		Detector: &detect.Snapshot{
			Items:      820,
			SinceCheck: 3,
			Window: []detect.SnapshotItem{
				{LatCycles: 9000, ID: 99, Core: 2,
					Funcs: []detect.SnapshotFunc{{Name: "table_lookup", Cycles: 8000}}},
			},
			Active: []detect.SnapshotEvent{{ID: 2, FiredAt: 770, PreMedian: 4100, Tol: 410}},
			Stats:  detect.Stats{Items: 820, Changepoints: 2, Verdicts: 2, Active: 1},
			Baseline: detect.BaselineSnapshot{
				SinceRotate: 308,
				Cur: []detect.BaselineCell{{
					Function: "table_lookup", Core: 2,
					Hist: obs.HistDump{Sum: 123456, Buckets: []obs.HistBucket{{Index: 40, Count: 7}, {Index: 99, Count: 2}}},
				}},
				CurItems: []detect.CoreItems{{Core: 2, Items: 308}},
			},
		},
	}
}

func TestHandoffBeginRoundTrip(t *testing.T) {
	want := testHandoffBegin()
	p, err := AppendHandoffBegin(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoffBegin(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed frame:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < len(p); i++ {
		if _, err := DecodeHandoffBegin(p[:i]); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", i, len(p))
		}
	}
	if _, err := DecodeHandoffBegin(append(p, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestHandoffAckRoundTrip(t *testing.T) {
	for _, disp := range []HandoffDisposition{HandoffInstalled, HandoffMerged, HandoffDuplicate} {
		want := HandoffAck{Source: "worker-3", Disposition: disp}
		p, err := AppendHandoffAck(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeHandoffAck(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip changed frame: got %+v want %+v", got, want)
		}
		for i := 0; i < len(p); i++ {
			if _, err := DecodeHandoffAck(p[:i]); err == nil {
				t.Fatalf("truncation at byte %d/%d accepted", i, len(p))
			}
		}
	}
	if _, err := AppendHandoffAck(nil, HandoffAck{Source: "s", Disposition: 9}); err == nil {
		t.Error("invalid disposition encoded")
	}
	if _, err := DecodeHandoffAck([]byte{1, 's', 9}); err == nil {
		t.Error("invalid disposition decoded")
	}
}

func TestRedirectRoundTrip(t *testing.T) {
	for _, want := range []Redirect{
		{Members: []string{"shard-b", "shard-c", "shard-d"}},
		{}, // empty table: "I am leaving and know no successor" is representable
	} {
		p, err := AppendRedirect(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRedirect(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed frame: got %+v want %+v", got, want)
		}
		for i := 0; i < len(p); i++ {
			if _, err := DecodeRedirect(p[:i]); err == nil {
				t.Fatalf("truncation at byte %d/%d accepted", i, len(p))
			}
		}
	}
}

func TestHandoffSourceRoundTrip(t *testing.T) {
	want := testHandoffSource()
	p, err := AppendHandoffSource(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoffSource(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed state:\n got %+v\nwant %+v", got, want)
	}
	// The payload is the checkpoint row's encoding and sits in drain spools
	// across upgrades: the golden must never need regenerating.
	golden, err := os.ReadFile("testdata/handoff_source_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, golden) {
		t.Fatalf("encoding moved:\n got %s\nwant %s", p, golden)
	}
	// A version-1 payload, captured before SourceState was factored out of
	// HandoffSource, still decodes to the state it was written from; the
	// encoder refuses its JSON items.
	v1, err := os.ReadFile("testdata/handoff_source.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeHandoffSource(v1)
	if err != nil {
		t.Fatal(err)
	}
	if want := testHandoffSourceV1(); !reflect.DeepEqual(got, want) {
		t.Fatalf("version-1 payload decoded to:\n got %+v\nwant %+v", got, want)
	}
	if _, err := AppendHandoffSource(nil, got); err == nil {
		t.Error("JSON items encoded as version 2")
	}
	if _, err := DecodeHandoffSource(append([]byte{handoffSourceVersion}, v1[1:]...)); err == nil {
		t.Error("version-2 payload with JSON items accepted")
	}
	if _, err := DecodeHandoffSource(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := DecodeHandoffSource([]byte{99}); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := DecodeHandoffSource([]byte{handoffSourceVersion, '{'}); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestHandoffSourceRejectsInvalid(t *testing.T) {
	for name, mut := range map[string]func(*HandoffSource){
		"empty source":  func(hs *HandoffSource) { hs.Source = "" },
		"long source":   func(hs *HandoffSource) { hs.Source = strings.Repeat("x", 256) },
		"negative conf": func(hs *HandoffSource) { hs.ConfN = -1 },
		"mean conf":     func(hs *HandoffSource) { hs.LastMeanConf = 1.5 },
		"conf sum":      func(hs *HandoffSource) { hs.ConfSum = -1 },
	} {
		hs := testHandoffSource()
		mut(hs)
		if _, err := AppendHandoffSource(nil, hs); err == nil {
			t.Errorf("%s: encode accepted", name)
		}
	}
}

// FuzzHandoffDecode throws arbitrary bytes at all four handoff decoders.
// Corrupt input must error, never panic. Anything a decoder accepts must
// survive the differential round trip: for the varint codecs, re-encode →
// decode → DeepEqual; for the JSON-bodied HandoffSource, the re-encoded
// bytes must be a fixpoint (encode(decode(encode(decode(data)))) is
// byte-identical), which pins the codec against nil-vs-empty drift that
// DeepEqual through omitempty fields cannot see — except a version-1
// state with JSON items, which only the importer upgrades. Run
// continuously with
//
//	go test -run '^$' -fuzz '^FuzzHandoffDecode$' ./internal/wire
//
// (make tier2 includes a short smoke).
func FuzzHandoffDecode(f *testing.F) {
	if p, err := AppendHandoffBegin(nil, testHandoffBegin()); err == nil {
		f.Add(p)
		f.Add(p[:len(p)/2])
	}
	if p, err := AppendHandoffAck(nil, HandoffAck{Source: "w", Disposition: HandoffMerged}); err == nil {
		f.Add(p)
	}
	if p, err := AppendRedirect(nil, Redirect{Members: []string{"a", "b"}}); err == nil {
		f.Add(p)
	}
	if p, err := AppendHandoffSource(nil, testHandoffSource()); err == nil {
		f.Add(p)
		f.Add(p[:len(p)-7])
	}
	if p, err := os.ReadFile("testdata/handoff_source.golden"); err == nil {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{handoffSourceVersion, '{', '}'})
	f.Add([]byte{7, 's', 'h', 'a', 'r', 'd', '-', 'a', 0xff, 0xff, 0xff, 0x7f}) // absurd member count

	f.Fuzz(func(t *testing.T, data []byte) {
		if hb, err := DecodeHandoffBegin(data); err == nil {
			re, err := AppendHandoffBegin(nil, hb)
			if err != nil {
				t.Fatalf("accepted begin failed to re-encode: %v", err)
			}
			back, err := DecodeHandoffBegin(re)
			if err != nil {
				t.Fatalf("re-encoded begin failed to decode: %v", err)
			}
			if !reflect.DeepEqual(hb, back) {
				t.Fatalf("begin round trip changed fields:\n got %+v\nwant %+v", back, hb)
			}
		}
		if ha, err := DecodeHandoffAck(data); err == nil {
			re, err := AppendHandoffAck(nil, ha)
			if err != nil {
				t.Fatalf("accepted ack failed to re-encode: %v", err)
			}
			if back, err := DecodeHandoffAck(re); err != nil || back != ha {
				t.Fatalf("ack round trip changed fields: %+v -> %+v (%v)", ha, back, err)
			}
		}
		if r, err := DecodeRedirect(data); err == nil {
			re, err := AppendRedirect(nil, r)
			if err != nil {
				t.Fatalf("accepted redirect failed to re-encode: %v", err)
			}
			back, err := DecodeRedirect(re)
			if err != nil {
				t.Fatalf("re-encoded redirect failed to decode: %v", err)
			}
			if !reflect.DeepEqual(r, back) {
				t.Fatalf("redirect round trip changed fields:\n got %+v\nwant %+v", back, r)
			}
		}
		if hs, err := DecodeHandoffSource(data); err == nil && len(hs.Items) == 0 {
			enc1, err := AppendHandoffSource(nil, hs)
			if err != nil {
				t.Fatalf("accepted state failed to re-encode: %v", err)
			}
			dec2, err := DecodeHandoffSource(enc1)
			if err != nil {
				t.Fatalf("re-encoded state failed to decode: %v", err)
			}
			enc2, err := AppendHandoffSource(nil, dec2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("handoff source encoding is not a fixpoint:\n enc1 %s\n enc2 %s", enc1[1:], enc2[1:])
			}
		}
	})
}
