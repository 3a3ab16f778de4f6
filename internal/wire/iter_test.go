package wire

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/pmu"
	"repro/internal/trace"
)

// The zero-copy iterators must be drop-in equivalents of the v1 callback
// decoders: same records, in the same order, and the same error at the
// same point on damaged input. These tests pin that equivalence three
// ways — the Next scalar path, the NextBatch word-packed path at several
// batch sizes, and a differential fuzz target — over the canonical golden
// fixtures (clean, bursty sample loss, marker drop) and arbitrary bytes.

// v1Markers decodes payload through the reference callback decoder.
func v1Markers(payload []byte) ([]trace.Marker, error) {
	var out []trace.Marker
	err := DecodeMarkers(payload, func(m trace.Marker) error {
		out = append(out, m)
		return nil
	})
	return out, err
}

// iterMarkersNext decodes payload one record at a time via MarkerIter.Next.
func iterMarkersNext(payload []byte) ([]trace.Marker, error) {
	it := IterMarkers(payload)
	var out []trace.Marker
	var m trace.Marker
	for it.Next(&m) {
		out = append(out, m)
	}
	return out, it.Err()
}

// iterMarkersBatch decodes payload via MarkerIter.NextBatch with the given
// batch size.
func iterMarkersBatch(payload []byte, batch int) ([]trace.Marker, error) {
	it := IterMarkers(payload)
	dst := make([]trace.Marker, batch)
	var out []trace.Marker
	for {
		n := it.NextBatch(dst)
		if n == 0 {
			break
		}
		out = append(out, dst[:n]...)
	}
	return out, it.Err()
}

func v1Samples(payload []byte) ([]pmu.Sample, error) {
	var out []pmu.Sample
	err := DecodeSamples(payload, func(sm pmu.Sample) error {
		out = append(out, sm)
		return nil
	})
	return out, err
}

func iterSamplesNext(payload []byte) ([]pmu.Sample, error) {
	it := IterSamples(payload)
	var out []pmu.Sample
	var sm pmu.Sample
	for it.Next(&sm) {
		out = append(out, sm)
	}
	return out, it.Err()
}

func iterSamplesBatch(payload []byte, batch int) ([]pmu.Sample, error) {
	it := IterSamples(payload)
	dst := make([]pmu.Sample, batch)
	var out []pmu.Sample
	for {
		n := it.NextBatch(dst)
		if n == 0 {
			break
		}
		out = append(out, dst[:n]...)
	}
	return out, it.Err()
}

// sameSample compares two samples with their registers by content: Regs
// is a pointer, so == compares addresses.
func sameSample(a, b pmu.Sample) bool { return reflect.DeepEqual(a, b) }

// errText canonicalizes an error for comparison: nil stays "", everything
// else is its message.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMarkerEquivalence runs every decode path over payload and fails the
// test unless they all agree on both records and error.
func checkMarkerEquivalence(t *testing.T, payload []byte) {
	t.Helper()
	want, wantErr := v1Markers(payload)
	got, gotErr := iterMarkersNext(payload)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Next error diverged: got %q want %q", errText(gotErr), errText(wantErr))
	}
	if len(got) != len(want) {
		t.Fatalf("Next record count diverged: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Next record %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	for _, batch := range []int{1, 3, 256} {
		got, gotErr := iterMarkersBatch(payload, batch)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("NextBatch(%d) error diverged: got %q want %q", batch, errText(gotErr), errText(wantErr))
		}
		if len(got) != len(want) {
			t.Fatalf("NextBatch(%d) record count diverged: got %d want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NextBatch(%d) record %d diverged:\n got %+v\nwant %+v", batch, i, got[i], want[i])
			}
		}
	}
}

func checkSampleEquivalence(t *testing.T, payload []byte) {
	t.Helper()
	want, wantErr := v1Samples(payload)
	got, gotErr := iterSamplesNext(payload)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Next error diverged: got %q want %q", errText(gotErr), errText(wantErr))
	}
	if len(got) != len(want) {
		t.Fatalf("Next record count diverged: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if !sameSample(got[i], want[i]) {
			t.Fatalf("Next record %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	for _, batch := range []int{1, 3, 256} {
		got, gotErr := iterSamplesBatch(payload, batch)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("NextBatch(%d) error diverged: got %q want %q", batch, errText(gotErr), errText(wantErr))
		}
		if len(got) != len(want) {
			t.Fatalf("NextBatch(%d) record count diverged: got %d want %d", batch, len(got), len(want))
		}
		for i := range want {
			if !sameSample(got[i], want[i]) {
				t.Fatalf("NextBatch(%d) record %d diverged:\n got %+v\nwant %+v", batch, i, got[i], want[i])
			}
		}
	}
}

// goldenSets loads the canonical fixtures from internal/trace/testdata.
func goldenSets(t *testing.T) map[string]*trace.Set {
	t.Helper()
	sets := make(map[string]*trace.Set)
	dir := filepath.Join("..", "trace", "testdata")
	for _, name := range []string{"clean", "loss10", "markerdrop"} {
		f, err := os.Open(filepath.Join(dir, name+".fltrc"))
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("decode fixture %s: %v", name, err)
		}
		sets[name] = set
	}
	return sets
}

// TestIterEquivalenceGolden encodes the golden fixtures' records through
// the production encoders and checks that every zero-copy decode path
// reproduces the v1 callback decoder byte for byte — on intact payloads
// and on truncations at every prefix length (where all paths must agree
// on both the decoded prefix and the error).
func TestIterEquivalenceGolden(t *testing.T) {
	for name, set := range goldenSets(t) {
		t.Run(name, func(t *testing.T) {
			// Encode in a few run lengths so delta restarts land at
			// different offsets, like real batched shipping does.
			for _, run := range []int{7, 256, len(set.Markers) + 1} {
				for lo := 0; lo < len(set.Markers); lo += run {
					hi := min(lo+run, len(set.Markers))
					payload := AppendMarkers(nil, set.Markers[lo:hi])
					checkMarkerEquivalence(t, payload)
				}
				for lo := 0; lo < len(set.Samples); lo += run {
					hi := min(lo+run, len(set.Samples))
					payload := AppendSamples(nil, set.Samples[lo:hi])
					checkSampleEquivalence(t, payload)
				}
			}
			// Damaged input: all truncation points of one mid-size batch.
			mEnd := min(64, len(set.Markers))
			mp := AppendMarkers(nil, set.Markers[:mEnd])
			for n := 0; n <= len(mp); n++ {
				checkMarkerEquivalence(t, mp[:n])
			}
			sEnd := min(64, len(set.Samples))
			sp := AppendSamples(nil, set.Samples[:sEnd])
			for n := 0; n <= len(sp); n++ {
				checkSampleEquivalence(t, sp[:n])
			}
		})
	}
}

// TestIterEquivalenceCorrupt flips each byte of a small encoded batch (one
// at a time, all 256 values at a sample of positions) and checks the decode
// paths still agree — corruption must fail, or succeed differently, in
// exactly the same way everywhere.
func TestIterEquivalenceCorrupt(t *testing.T) {
	mp := AppendMarkers(nil, testMarkers())
	for pos := 0; pos < len(mp); pos++ {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			cp := append([]byte(nil), mp...)
			cp[pos] ^= x
			checkMarkerEquivalence(t, cp)
		}
	}
	sp := AppendSamples(nil, testSamples())
	for pos := 0; pos < len(sp); pos++ {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			cp := append([]byte(nil), sp...)
			cp[pos] ^= x
			checkSampleEquivalence(t, cp)
		}
	}
}

// TestIterRejectsTrailingGarbage pins the Err contract: records that decode
// cleanly followed by undecodable trailing bytes is an error, not a clean
// stop.
func TestIterRejectsTrailingGarbage(t *testing.T) {
	payload := AppendMarkers(nil, testMarkers())
	payload = append(payload, 0x80) // dangling varint continuation byte
	if _, err := iterMarkersNext(payload); err == nil {
		t.Fatal("trailing garbage after markers not rejected")
	}
	checkMarkerEquivalence(t, payload)
}

// record is one decoded record of a TRecords payload: the kind says which
// of the two fields is set.
type record struct {
	kind Type
	m    trace.Marker
	s    pmu.Sample
}

// iterRecords decodes a TRecords payload via RecordIter.Next.
func iterRecords(payload []byte) ([]record, error) {
	it := IterRecords(payload)
	var out []record
	var m trace.Marker
	var sm pmu.Sample
	for {
		switch kind := it.Next(&m, &sm); kind {
		case TMarkers:
			out = append(out, record{kind: kind, m: m})
		case TSamples:
			out = append(out, record{kind: kind, s: sm})
		default:
			return out, it.Err()
		}
	}
}

var errUnknownRunKind = errors.New("unknown run kind")

// recordsByRun is the reference for RecordIter: each run decoded on its own
// — a fresh single-run iterator finds where it ends, the v1 callback decoder
// decodes exactly those bytes against a zero base — and rebased by hand onto
// the last TSC of the run before it. A damaged run goes to the v1 decoder
// with everything after it, which yields the intact prefix and the error.
func recordsByRun(p []byte) ([]record, error) {
	var out []record
	var base uint64
	for len(p) > 0 {
		kind, body := Type(p[0]), p[1:]
		var err error
		switch kind {
		case TMarkers:
			it := IterMarkers(body)
			for it.Next(new(trace.Marker)) {
			}
			if it.err == nil {
				body = body[:it.i]
			}
			var ms []trace.Marker
			ms, err = v1Markers(body)
			for _, m := range ms {
				m.TSC += base
				out = append(out, record{kind: kind, m: m})
			}
			if len(ms) > 0 {
				base = ms[len(ms)-1].TSC + base
			}
		case TSamples:
			it := IterSamples(body)
			for it.Next(new(pmu.Sample)) {
			}
			if it.err == nil {
				body = body[:it.i]
			}
			var ss []pmu.Sample
			ss, err = v1Samples(body)
			for _, sm := range ss {
				sm.TSC += base
				out = append(out, record{kind: kind, s: sm})
			}
			if len(ss) > 0 {
				base = ss[len(ss)-1].TSC + base
			}
		default:
			err = errUnknownRunKind
		}
		if err != nil {
			return out, err
		}
		p = p[1+len(body):]
	}
	return out, nil
}

// checkRecordsEquivalence fails the test unless RecordIter and the
// run-by-run reference agree on both records and error.
func checkRecordsEquivalence(t *testing.T, payload []byte) {
	t.Helper()
	want, wantErr := recordsByRun(payload)
	got, gotErr := iterRecords(payload)
	if wantErr == errUnknownRunKind {
		if gotErr == nil || !strings.Contains(gotErr.Error(), "unknown kind") {
			t.Fatalf("unknown run kind: got error %v", gotErr)
		}
	} else if errText(gotErr) != errText(wantErr) {
		t.Fatalf("records: error diverged: got %q want %q", errText(gotErr), errText(wantErr))
	}
	if len(got) != len(want) {
		t.Fatalf("records: count diverged: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].kind != want[i].kind || got[i].m != want[i].m || !sameSample(got[i].s, want[i].s) {
			t.Fatalf("records: record %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// mixedPayload encodes the test records as a TRecords payload of
// alternating runs, run records at a time, in the interleaving given by
// order ('m' or 's' per run), with the ΔTSC chain carried across runs.
func mixedPayload(order string, run int) []byte {
	ms, ss := testMarkers(), testSamples()
	var p []byte
	var base uint64
	for _, k := range order {
		if k == 'm' {
			n := min(run, len(ms))
			p = AppendMarkerRun(p, base, ms[:n])
			if n > 0 {
				base = ms[n-1].TSC
			}
			ms = ms[n:]
		} else {
			n := min(run, len(ss))
			p = AppendSampleRun(p, base, ss[:n])
			if n > 0 {
				base = ss[n-1].TSC
			}
			ss = ss[n:]
		}
	}
	return p
}

// TestRecordIterMixed: a payload of interleaved runs decodes back to the
// records in feed order with the ΔTSC chain intact across run boundaries —
// on intact payloads, at every truncation, and with every byte damaged.
func TestRecordIterMixed(t *testing.T) {
	p := mixedPayload("msmsmsm", 1)
	got, err := iterRecords(p)
	if err != nil {
		t.Fatal(err)
	}
	ms, ss := testMarkers(), testSamples()
	want := []record{
		{kind: TMarkers, m: ms[0]}, {kind: TSamples, s: ss[0]}, {kind: TMarkers, m: ms[1]}, {kind: TSamples, s: ss[1]},
		{kind: TMarkers, m: ms[2]}, {kind: TSamples, s: ss[2]}, {kind: TMarkers, m: ms[3]},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed payload decoded to\n%+v\nwant\n%+v", got, want)
	}
	// Chained: only the frame's first record pays for an absolute timestamp.
	var single int
	for i := range ms {
		single += len(AppendMarkers(nil, ms[i:i+1]))
	}
	for i := range ss {
		single += len(AppendSamples(nil, ss[i:i+1]))
	}
	if len(p)-len(want) >= single {
		t.Fatalf("chained payload is %d bytes with %d kind bytes; the runs on their own are %d", len(p), len(want), single)
	}
	for _, p := range [][]byte{p, mixedPayload("ms", 8), mixedPayload("smmss", 2), nil} {
		for n := 0; n <= len(p); n++ {
			checkRecordsEquivalence(t, p[:n])
		}
		for pos := range p {
			for _, x := range []byte{0x01, 0x04, 0x80, 0xff} {
				cp := bytes.Clone(p)
				cp[pos] ^= x
				checkRecordsEquivalence(t, cp)
			}
		}
	}
}

// FuzzFrameIter is the differential fuzzer behind the handwritten cases
// above: arbitrary bytes as a marker run, a sample run (v1 callback decode
// vs Next vs NextBatch) or a TRecords payload (RecordIter vs each run decoded
// on its own with the chained base), everything must agree — and nothing
// may read past the payload, which the runtime's bounds checks turn into a
// crash.
//
//	go test -run '^$' -fuzz '^FuzzFrameIter$' ./internal/wire
func FuzzFrameIter(f *testing.F) {
	const markers, samples, records = 0, 1, 2
	f.Add(uint8(markers), AppendMarkers(nil, testMarkers()))
	f.Add(uint8(samples), AppendSamples(nil, testSamples()))
	f.Add(uint8(markers), []byte{})
	f.Add(uint8(samples), []byte{0x02, 0x00, 0x01})
	mp := AppendMarkers(nil, testMarkers())
	f.Add(uint8(markers), mp[:len(mp)-2])
	f.Add(uint8(samples), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Add(uint8(records), mixedPayload("m", 8))                                   // a single run
	f.Add(uint8(records), mixedPayload("msmsmsm", 1))                             // alternating 1-record runs
	f.Add(uint8(records), append(mixedPayload("ms", 0), mixedPayload("s", 8)...)) // zero-count runs
	f.Add(uint8(records), append(mixedPayload("m", 8), 9, 1, 0))                  // an unknown kind byte
	f.Add(uint8(records), []byte{byte(TSamples), 0x7f, 0x02, 0x00, 0x01})         // a count larger than the bytes left
	rp := mixedPayload("ms", 8)
	f.Add(uint8(records), rp[:len(rp)-3]) // cut mid-record
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		switch which % 3 {
		case records:
			checkRecordsEquivalence(t, payload)
		case samples:
			checkSampleEquivalence(t, payload)
		default:
			checkMarkerEquivalence(t, payload)
		}
	})
}

// TestIterBatchReuseDirtyDst pins the register rule of a reused
// destination: a decoder points a record with registers at a fresh block
// and a record without at nil. It never writes into the block a dst entry
// already points at — a copy kept from an earlier batch shares that block —
// and never leaves a stale block on a regs-free record.
func TestIterBatchReuseDirtyDst(t *testing.T) {
	// Enough records that NextBatch takes its fast path, not only the
	// careful one near the payload end.
	regsRun := func(base uint64) []pmu.Sample {
		ss := make([]pmu.Sample, 40)
		for i := range ss {
			ss[i] = pmu.Sample{TSC: 1000 + 10*uint64(i), IP: 0x400000 + uint64(i), Regs: new([pmu.NumRegs]uint64)}
			for r := range ss[i].Regs {
				ss[i].Regs[r] = base + uint64(i*100+r+1)
			}
		}
		return ss
	}
	withRegs, otherRegs := regsRun(0), regsRun(1<<20)
	noRegs := regsRun(0)
	for i := range noRegs {
		noRegs[i].Regs = nil
	}
	decode := func(dst []pmu.Sample, ss []pmu.Sample, batch bool) []pmu.Sample {
		t.Helper()
		var out []pmu.Sample
		it := IterSamples(AppendSamples(nil, ss))
		for {
			n := 1
			if batch {
				n = it.NextBatch(dst)
			} else if !it.Next(&dst[0]) {
				n = 0
			}
			if n == 0 {
				break
			}
			out = append(out, dst[:n]...)
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, batch := range []bool{true, false} {
		dst := make([]pmu.Sample, 8)
		first := decode(dst, withRegs, batch)
		kept := first[len(first)-1] // shares its block with dst
		want := *kept.Regs

		if got := decode(dst, otherRegs, batch); !slices.EqualFunc(got, otherRegs, sameSample) {
			t.Fatalf("batch=%v: registers decoded into a reused dst differ from the encoded ones", batch)
		}
		if *kept.Regs != want {
			t.Fatalf("batch=%v: a decode into the reused dst wrote into a kept sample's block: %v, want %v", batch, *kept.Regs, want)
		}
		for i, sm := range decode(dst, noRegs, batch) {
			if sm.Regs != nil {
				t.Fatalf("batch=%v: regs-free record %d came back with a block %v from the reused dst", batch, i, *sm.Regs)
			}
		}
		if !slices.EqualFunc(first, withRegs, sameSample) || *kept.Regs != want {
			t.Fatalf("batch=%v: samples kept from the first decode changed under later decodes", batch)
		}
	}
}
