package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// renderTieItem is one item of TestIntegrateTies as "ID@begin-end
// n<samples> u<unresolved> c<confidence>".
func renderTieItem(it *Item) string {
	return fmt.Sprintf("%d@%d-%d n%d u%d c%g", it.ID, it.BeginTSC, it.EndTSC, it.SampleCount, it.UnresolvedSamples, it.Confidence)
}

// TestIntegrateTies pins Integrate where records share a cycle and the
// order of a sample against the markers decides its item, then feeds each
// case to a StreamIntegrator in the trace.Feed walk's order. That order puts
// the markers before a same-cycle sample, so the stream differs from Integrate
// exactly as DESIGN §7 documents: a sample on an End's cycle lands in the
// item a Begin on that cycle opens, or in none, instead of the item the
// End closes; and the item still open after the last marker is flushed at
// ×0.25 instead of dropped with its samples. A nil stream row means the
// stream agrees with Integrate.
func TestIntegrateTies(t *testing.T) {
	tab := symtab.NewTable()
	f := tab.MustRegister("f", 64)
	begin := func(id, tsc uint64) trace.Marker {
		return trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemBegin}
	}
	end := func(id, tsc uint64) trace.Marker {
		return trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemEnd}
	}
	sample := func(tsc uint64) pmu.Sample { return pmu.Sample{TSC: tsc, IP: f.Base} }
	unresolved := pmu.Sample{TSC: 36, IP: 1}

	cases := []struct {
		name          string
		markers       []trace.Marker
		samples       []pmu.Sample
		items, stream []string
		diag, sdiag   string
	}{{
		name:    "sample on an End's cycle",
		markers: []trace.Marker{begin(1, 10), end(1, 20)},
		samples: []pmu.Sample{sample(15), sample(20)},
		items:   []string{"1@10-20 n2 u0 c1"},
		diag:    "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=1/1",
		stream:  []string{"1@10-20 n1 u0 c1"},
		sdiag:   "diag: unattributed=1 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=0/1",
	}, {
		name:    "sample on a Begin's cycle with nothing open",
		markers: []trace.Marker{begin(1, 10), end(1, 20)},
		samples: []pmu.Sample{sample(10), sample(15)},
		items:   []string{"1@10-20 n2 u0 c1"},
		diag:    "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=1/1",
	}, {
		name:    "End and Begin on one cycle with a sample on it",
		markers: []trace.Marker{begin(1, 10), end(1, 20), begin(2, 20), end(2, 30)},
		samples: []pmu.Sample{sample(15), sample(20), sample(25)},
		items:   []string{"1@10-20 n2 u0 c1", "2@20-30 n1 u0 c1"},
		diag:    "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=2/1",
		stream:  []string{"1@10-20 n1 u0 c1", "2@20-30 n2 u0 c1"},
		sdiag:   "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=2/1",
	}, {
		name:    "reopen on a tie",
		markers: []trace.Marker{begin(1, 10), begin(2, 20), end(2, 30)},
		samples: []pmu.Sample{sample(15), sample(20), sample(25)},
		items:   []string{"1@10-20 n2 u0 c0.5", "2@20-30 n1 u0 c1"},
		diag:    "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=1 unclosed=0 repaired=0 ignored_event=0 symcache=2/1",
		stream:  []string{"1@10-20 n1 u0 c0.5", "2@20-30 n2 u0 c1"},
		sdiag:   "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=1 unclosed=0 repaired=0 ignored_event=0 symcache=2/1",
	}, {
		name:    "zero-length item",
		markers: []trace.Marker{begin(1, 10), begin(2, 10), end(2, 20)},
		samples: []pmu.Sample{sample(10), sample(15)},
		items:   []string{"1@10-10 n1 u0 c0.5", "2@10-20 n1 u0 c1"},
		diag:    "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=1 unclosed=0 repaired=0 ignored_event=0 symcache=1/1",
		stream:  []string{"1@10-10 n0 u0 c0.5", "2@10-20 n2 u0 c1"},
		sdiag:   "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=1 unclosed=0 repaired=0 ignored_event=0 symcache=1/1",
	}, {
		name:    "trailing unclosed item, then an orphan End and a doubled Begin",
		markers: []trace.Marker{begin(1, 10), end(1, 20), begin(2, 30), end(9, 40), begin(2, 45)},
		samples: []pmu.Sample{sample(12), sample(35), unresolved, sample(50)},
		items:   []string{"1@10-20 n1 u0 c1"},
		diag:    "diag: unattributed=3 unresolved=0 orphan_ends=1 reopened=0 unclosed=1 repaired=1 ignored_event=0 symcache=0/1",
		stream:  []string{"1@10-20 n1 u0 c1", "2@30-50 n3 u1 c0.25"},
		sdiag:   "diag: unattributed=0 unresolved=1 orphan_ends=1 reopened=0 unclosed=1 repaired=1 ignored_event=0 symcache=2/2",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := &trace.Set{FreqHz: 1_000_000_000, Syms: tab, Markers: tc.markers, Samples: tc.samples}
			a, err := Integrate(set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var items []string
			for i := range a.Items {
				items = append(items, renderTieItem(&a.Items[i]))
			}
			if !slices.Equal(items, tc.items) || a.Diag.String() != tc.diag {
				t.Errorf("Integrate:\n got %q\n     %s\nwant %q\n     %s", items, a.Diag, tc.items, tc.diag)
			}

			var streamed []string
			s, err := NewStreamIntegrator(tab, Options{}, func(it *Item) { streamed = append(streamed, renderTieItem(it)) })
			if err != nil {
				t.Fatal(err)
			}
			feed := set.Feed()
			for r, ok := feed.Next(); ok; r, ok = feed.Next() {
				if r < 0 {
					s.Marker(set.Markers[^r])
				} else {
					s.Sample(set.Samples[r])
				}
			}
			s.Close()
			want, wantDiag := tc.stream, tc.sdiag
			if want == nil {
				want, wantDiag = tc.items, tc.diag
			}
			if !slices.Equal(streamed, want) || s.Diag().String() != wantDiag {
				t.Errorf("stream:\n got %q\n     %s\nwant %q\n     %s", streamed, s.Diag(), want, wantDiag)
			}
		})
	}
}
