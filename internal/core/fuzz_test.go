package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// fuzzSet interprets fuzz bytes as a script of marker/sample records — six
// bytes each — so the fuzzer explores arbitrary interleavings: duplicate
// IDs, orphan Ends, nested Begins, timestamp ties, out-of-order delivery.
func fuzzSet(data []byte) *trace.Set {
	tab := symtab.NewTable()
	fns := []*symtab.Fn{
		tab.MustRegister("a", 256),
		tab.MustRegister("b", 256),
		tab.MustRegister("c", 256),
	}
	set := &trace.Set{FreqHz: 1_000_000_000, Syms: tab}
	for len(data) >= 6 {
		rec, rest := data[:6], data[6:]
		data = rest
		core := int32(rec[1] & 3)
		// Coarse timestamps on purpose: collisions and ties are where
		// ordering bugs live.
		tsc := uint64(binary.LittleEndian.Uint16(rec[2:4])) * 8
		switch rec[0] & 3 {
		case 0, 1:
			kind := trace.ItemBegin
			if rec[0]&1 == 1 {
				kind = trace.ItemEnd
			}
			set.Markers = append(set.Markers, trace.Marker{
				Item: uint64(rec[4]&7) + 1, TSC: tsc, Core: core, Kind: kind,
			})
		default:
			fn := fns[int(rec[4])%len(fns)]
			set.Samples = append(set.Samples, pmu.Sample{
				TSC: tsc, IP: fn.Base + uint64(rec[5]), Core: core, Event: pmu.UopsRetired,
			})
		}
	}
	return set
}

// FuzzIntegrate feeds arbitrary marker/sample interleavings through both
// integrators: no panic, no error, identical output at every parallelism
// level and to the reference interval pass (oracle_test.go) at both
// ExcludeBoundaries settings, Diagnostics included, confidence always in
// [0,1]. Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzIntegrate$' ./internal/core
func FuzzIntegrate(f *testing.F) {
	f.Add([]byte{})
	// Begin(1)@80, sample, End(1)@160 — one clean item.
	f.Add([]byte{
		0, 0, 10, 0, 0, 0,
		2, 0, 15, 0, 0, 4,
		1, 0, 20, 0, 0, 0,
	})
	// Orphan End, then two Begins with no End (forced reopen).
	f.Add([]byte{
		1, 0, 5, 0, 1, 0,
		0, 0, 10, 0, 2, 0,
		0, 0, 20, 0, 3, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		set := fuzzSet(data)

		ref, err := Integrate(set, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("sequential Integrate: %v", err)
		}
		for i := range ref.Items {
			if c := ref.Items[i].Confidence; c < 0 || c > 1 {
				t.Fatalf("item %d confidence %v out of [0,1]", ref.Items[i].ID, c)
			}
		}
		for _, p := range []int{2, 4} {
			par, err := Integrate(set, Options{Parallelism: p})
			if err != nil {
				t.Fatalf("p=%d Integrate: %v", p, err)
			}
			if !reflect.DeepEqual(ref.Items, par.Items) || ref.Diag != par.Diag {
				t.Fatalf("p=%d diverged from sequential on fuzz input", p)
			}
		}
		for _, excl := range []bool{false, true} {
			opts := Options{ExcludeBoundaries: excl, Parallelism: 1}
			got, err := Integrate(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleIntegrate(set, opts)
			if !reflect.DeepEqual(got.Items, want.Items) || got.Diag != want.Diag ||
				!reflect.DeepEqual(got.MeanSampleGap, want.MeanSampleGap) {
				t.Fatalf("ExcludeBoundaries=%v: Integrate diverged from the reference pass\n got %v %+v\nwant %v %+v",
					excl, got.Diag, got.Items, want.Diag, want.Items)
			}
		}

		// The online integrator sees the raw, unsorted stream.
		n := 0
		s, err := NewStreamIntegrator(set.Syms, Options{}, func(it *Item) {
			if it.Confidence < 0 || it.Confidence > 1 {
				t.Fatalf("stream confidence %v out of [0,1]", it.Confidence)
			}
			n++
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range set.Markers {
			s.Marker(m)
		}
		for i := range set.Samples {
			s.Sample(set.Samples[i])
		}
		s.Close()
		if n != s.Items() {
			t.Fatalf("stream callback saw %d items, integrator reports %d", n, s.Items())
		}
	})
}
