package core

import (
	"runtime"
	"testing"
	"unsafe"

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
// round they differ by at most the larger round's chunk count. Its bytes
// grow by one Item and 4 bytes of merge order an item beside the spans,
// so the items are held once.
func TestIntegrateAllocsFlat(t *testing.T) {
	type cost struct {
		allocs, bytes                float64
		items, spans, chunks, widest int
	}
	measure := func(set *trace.Set) cost {
		a, err := Integrate(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// A chunk other than a shard's last is filled to within one item's
		// spans of spanChunk.
		c := cost{items: len(a.Items)}
		perCore := map[int32]int{}
		for i := range a.Items {
			perCore[a.Items[i].Core] += len(a.Items[i].Funcs)
			c.spans += len(a.Items[i].Funcs)
			c.widest = max(c.widest, len(a.Items[i].Funcs))
		}
		for _, n := range perCore {
			c.chunks += 1 + n/(spanChunk-c.widest+1)
		}
		c.allocs = testing.AllocsPerRun(3, func() { Integrate(set, Options{}) })
		const runs = 3
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			Integrate(set, Options{})
		}
		runtime.ReadMemStats(&m1)
		c.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		return c
	}
	small := measure(dpchainSet(t, 2, 1000))
	large := measure(dpchainSet(t, 2, 10000))
	t.Logf("Integrate allocations: %.0f at 2 × 1,000 items, %.0f at 2 × 10,000 (at most %d span chunks)", small.allocs, large.allocs, large.chunks)
	if large.allocs-small.allocs > float64(large.chunks) {
		t.Errorf("Integrate made %.0f allocations at 2 × 10,000 items and %.0f at 2 × 1,000: %.0f more than the %d span chunks allow",
			large.allocs, small.allocs, large.allocs-small.allocs-float64(large.chunks), large.chunks)
	}
	// Each span is held once; a chunk wastes fewer than widest spans at its
	// end, and each core's last chunk may be part-filled.
	spans := large.spans - small.spans + large.chunks*large.widest + 2*spanChunk
	allow := float64(large.items-small.items)*float64(unsafe.Sizeof(Item{})+4) + float64(spans)*float64(unsafe.Sizeof(FuncSpan{}))
	t.Logf("Integrate bytes: %.0f at 2 × 1,000 items, %.0f at 2 × 10,000 (%.0f allowed between them)", small.bytes, large.bytes, allow)
	if large.bytes-small.bytes > allow {
		t.Errorf("Integrate allocated %.0f bytes at 2 × 10,000 items and %.0f at 2 × 1,000: %.0f more than one item array, its merge order and the spans allow",
			large.bytes, small.bytes, large.bytes-small.bytes-allow)
	}
}
