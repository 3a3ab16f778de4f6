package core

import (
	"testing"

	"repro/internal/dataplane"
	"repro/internal/trace"
	"repro/internal/workloads/dpchain"
)

// dpchainSet is one dpchain round's trace: workers × packets items.
func dpchainSet(t *testing.T, workers, packets int) *trace.Set {
	t.Helper()
	res, err := dataplane.Run(dpchain.BaseConfig(workers, packets))
	if err != nil {
		t.Fatal(err)
	}
	return res.Set
}

// TestIntegrateSpansExact: every item Integrate returns holds its spans in
// an exact view (len == cap, nil when it has none), so appending to one
// item's Funcs copies them out and leaves every neighbour as it was.
func TestIntegrateSpansExact(t *testing.T) {
	a, err := Integrate(dpchainSet(t, 2, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for i := range a.Items {
		fs := a.Items[i].Funcs
		if len(fs) != cap(fs) || len(fs) == 0 && fs != nil {
			t.Fatalf("item %d: Funcs len %d cap %d nil %v, want an exact view", a.Items[i].ID, len(fs), cap(fs), fs == nil)
		}
		spans += len(fs)
	}
	if spans == 0 {
		t.Fatal("no spans to check")
	}
	// Neighbours in one core's run are carved from one chunk back to back.
	checked := 0
	for i := range a.Items {
		it := &a.Items[i]
		for j := i + 1; j < len(a.Items) && j < i+4; j++ {
			next := &a.Items[j]
			if next.Core != it.Core || len(it.Funcs) == 0 || len(next.Funcs) == 0 {
				continue
			}
			want := append([]FuncSpan(nil), next.Funcs...)
			it.Funcs = append(it.Funcs, FuncSpan{Samples: -1})
			for k := range want {
				if next.Funcs[k] != want[k] {
					t.Fatalf("appending to item %d's Funcs rewrote item %d's span %d", it.ID, next.ID, k)
				}
			}
			it.Funcs = it.Funcs[:len(it.Funcs)-1]
			checked++
			break
		}
	}
	if checked == 0 {
		t.Fatal("no neighbouring items with spans")
	}
}

// TestIntegrateAllocsFlat: Integrate's allocations grow with the span
// chunks, not with the items: from a 2 × 1,000 to a 2 × 10,000 dpchain
// round they differ by at most the larger round's chunk count.
func TestIntegrateAllocsFlat(t *testing.T) {
	allocs := func(set *trace.Set) (float64, int) {
		a, err := Integrate(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A chunk other than a shard's last is filled to within one item's
		// spans of spanChunk.
		perCore, widest := map[int32]int{}, 0
		for i := range a.Items {
			perCore[a.Items[i].Core] += len(a.Items[i].Funcs)
			widest = max(widest, len(a.Items[i].Funcs))
		}
		chunks := 0
		for _, n := range perCore {
			chunks += 1 + n/(spanChunk-widest+1)
		}
		return testing.AllocsPerRun(3, func() { Integrate(set, Options{}) }), chunks
	}
	small, _ := allocs(dpchainSet(t, 2, 1000))
	large, chunks := allocs(dpchainSet(t, 2, 10000))
	t.Logf("Integrate allocations: %.0f at 2 × 1,000 items, %.0f at 2 × 10,000 (at most %d span chunks)", small, large, chunks)
	if large-small > float64(chunks) {
		t.Errorf("Integrate made %.0f allocations at 2 × 10,000 items and %.0f at 2 × 1,000: %.0f more than the %d span chunks allow",
			large, small, large-small-float64(chunks), chunks)
	}
}
