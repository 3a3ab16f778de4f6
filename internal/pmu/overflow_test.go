package pmu

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// fill drives n overflows into p with ascending timestamps.
func fill(p *PEBS, n int, startTSC uint64) {
	for i := 0; i < n; i++ {
		p.Overflow(UopsRetired, Ctx{TSC: startTSC + uint64(i), IP: 0x100})
	}
}

func TestOverflowDrainIsDefault(t *testing.T) {
	p := NewPEBS(PEBSConfig{BufferEntries: 8})
	fill(p, 20, 1000)
	if got := len(p.Samples()); got != 20 {
		t.Errorf("drain policy lost samples: %d/20", got)
	}
	if p.Dropped() != 0 || p.DroppedBursts() != 0 {
		t.Errorf("drain policy dropped: %d in %d bursts", p.Dropped(), p.DroppedBursts())
	}
	if p.Interrupts() != 2 {
		t.Errorf("interrupts = %d, want 2", p.Interrupts())
	}
}

func TestOverflowWrapKeepsNewest(t *testing.T) {
	p := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: OverflowWrap})
	fill(p, 20, 1000)
	got := p.Samples()
	if len(got) != 8 {
		t.Fatalf("wrap kept %d samples, want 8", len(got))
	}
	// The ring retains the 12 newest? No — the 8 newest of the 20.
	for i, s := range got {
		if want := uint64(1000 + 12 + i); s.TSC != want {
			t.Fatalf("wrap sample %d TSC = %d, want %d (oldest must be evicted)", i, s.TSC, want)
		}
	}
	if p.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", p.Dropped())
	}
	if p.Interrupts() != 0 {
		t.Errorf("wrap mode raised %d interrupts, want 0", p.Interrupts())
	}
	if p.Count() != 20 {
		t.Errorf("count = %d, want 20 (drops included)", p.Count())
	}
}

// TestOverflowWrapManyLaps laps the ring several times, ending mid-lap: the
// survivors are exactly the last BufferEntries records, oldest first.
func TestOverflowWrapManyLaps(t *testing.T) {
	const entries, total = 8, 8*4 + 3 // three full laps past the fill, then 3 more
	p := NewPEBS(PEBSConfig{BufferEntries: entries, OverflowPolicy: OverflowWrap})
	fill(p, total, 1000)
	got := p.Samples()
	if len(got) != entries {
		t.Fatalf("wrap kept %d samples, want %d", len(got), entries)
	}
	for i, s := range got {
		if want := uint64(1000 + total - entries + i); s.TSC != want {
			t.Fatalf("wrap sample %d TSC = %d, want %d", i, s.TSC, want)
		}
	}
	if p.Dropped() != total-entries || p.DroppedBursts() != 1 || p.Count() != total {
		t.Errorf("dropped %d in %d bursts of %d taken, want %d in 1 of %d",
			p.Dropped(), p.DroppedBursts(), p.Count(), total-entries, total)
	}
}

// TestDrainMergeExactSize: the merge over several units drains each one
// (counting the flush, honouring each unit's overflow policy) and returns
// their records unit by unit in one slice with no spare capacity; Samples
// on a unit afterwards still returns that unit's own records.
func TestDrainMergeExactSize(t *testing.T) {
	a := NewPEBS(PEBSConfig{BufferEntries: 8})
	b := NewPEBS(PEBSConfig{BufferEntries: 8})
	// The lossy unit's helper is 3 records late: the 3 records after the
	// buffer fills are dropped, then the full buffer drains.
	lossy := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: OverflowDropBurst, HelperLagRecords: 3})
	fill(a, 20, 1000)
	fill(b, 3, 5000)
	fill(lossy, 11, 9000)
	got := MergeSamples(a, b, NewPEBS(PEBSConfig{}), lossy)
	if len(got) != 20+3+8 || cap(got) != len(got) {
		t.Fatalf("merged len %d cap %d, want 31 and equal", len(got), cap(got))
	}
	want := uint64(1000)
	for i, s := range got {
		switch i {
		case 20:
			want = 5000
		case 23:
			want = 9000
		}
		if s.TSC != want {
			t.Fatalf("merged sample %d TSC = %d, want %d", i, s.TSC, want)
		}
		want++
	}
	if lossy.Dropped() != 3 || lossy.Count() != 11 {
		t.Errorf("lossy unit dropped %d of %d, want 3 of 11", lossy.Dropped(), lossy.Count())
	}
	if s := a.Samples(); len(s) != 20 || cap(s) != 20 || s[19].TSC != 1019 {
		t.Errorf("unit a after merge: len %d cap %d", len(s), cap(s))
	}
	if MergeSamples() != nil || MergeSamples(NewPEBS(PEBSConfig{})) != nil {
		t.Error("a merge of nothing should be nil")
	}
}

func TestOverflowDropBurstIsContiguous(t *testing.T) {
	p := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: OverflowDropBurst, HelperLagRecords: 4})
	// 8 fill the buffer; 4 are dropped in one burst; drain; 8 more fill it
	// again; 4 dropped; drain; 2 land in the fresh buffer.
	fill(p, 26, 1000)
	got := p.Samples()
	if len(got) != 18 {
		t.Fatalf("kept %d samples, want 18", len(got))
	}
	if p.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", p.Dropped())
	}
	if p.DroppedBursts() != 2 {
		t.Errorf("bursts = %d, want 2", p.DroppedBursts())
	}
	// The losses are the contiguous TSC runs [1008,1011] and [1020,1023].
	lost := map[uint64]bool{}
	for i := 0; i < 26; i++ {
		lost[uint64(1000+i)] = true
	}
	for _, s := range got {
		delete(lost, s.TSC)
	}
	for _, want := range []uint64{1008, 1009, 1010, 1011, 1020, 1021, 1022, 1023} {
		if !lost[want] {
			t.Errorf("TSC %d should have been dropped; lost set: %v", want, lost)
		}
	}
	if len(lost) != 8 {
		t.Errorf("lost %d TSCs, want 8: %v", len(lost), lost)
	}
	if p.Interrupts() != 2 {
		t.Errorf("interrupts = %d, want 2 (one per late drain)", p.Interrupts())
	}
}

func TestOverflowDropBurstDefaultLag(t *testing.T) {
	p := NewPEBS(PEBSConfig{BufferEntries: 16, OverflowPolicy: OverflowDropBurst})
	fill(p, 40, 0)
	// Default lag = BufferEntries/4 = 4: 16 fill, 4 drop, drain, repeat.
	if p.Dropped() == 0 || p.DroppedBursts() == 0 {
		t.Errorf("default lag never dropped: %d in %d bursts", p.Dropped(), p.DroppedBursts())
	}
	if mean := float64(p.Dropped()) / float64(p.DroppedBursts()); mean != 4 {
		t.Errorf("mean burst = %v, want 4", mean)
	}
}

// TestSampleBuffersReused: once a merge has released a round's drained
// buffers, a second round of the same shape takes them back, so it
// allocates its merged slice and nothing per record besides. A capacity
// no other test uses keeps the free list's key to this test.
func TestSampleBuffersReused(t *testing.T) {
	const entries, n = 1021, 1021*6 + 5
	round := func() []Sample {
		a := NewPEBS(PEBSConfig{BufferEntries: entries})
		b := NewPEBS(PEBSConfig{BufferEntries: entries})
		fill(a, n, 1000)
		fill(b, n, 1000)
		return MergeSamples(a, b)
	}
	round()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	got := round()
	runtime.ReadMemStats(&m1)
	merged := uint64(len(got)) * uint64(unsafe.Sizeof(Sample{}))
	// Beside the merged slice: two units and their lists of drained
	// buffers, far less than one buffer.
	buffer := uint64(entries * unsafe.Sizeof(Sample{}))
	if total := m1.TotalAlloc - m0.TotalAlloc; total < merged || total-merged >= buffer {
		t.Errorf("second round allocated %d bytes beside its %d-byte merged slice, want no drain buffer (%d bytes each)",
			int64(m1.TotalAlloc-m0.TotalAlloc)-int64(merged), merged, buffer)
	}
}

// TestSampleBuffersNotAliased: a merged result and a unit's Samples after
// it own their records; the next run writing into the buffers the merge
// released leaves them unchanged. Under OverflowWrap the ring is rotated
// in place before it is released.
func TestSampleBuffersNotAliased(t *testing.T) {
	for _, policy := range []OverflowPolicy{OverflowDrain, OverflowWrap} {
		a := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: policy})
		b := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: policy})
		fill(a, 21, 1000)
		fill(b, 13, 5000)
		merged := MergeSamples(a, b)
		own := a.Samples()
		solo := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: policy})
		fill(solo, 5, 7000) // one part-filled buffer, drained by Samples alone
		alone := solo.Samples()
		want, wantOwn, wantAlone := slices.Clone(merged), slices.Clone(own), slices.Clone(alone)
		for i := 0; i < 4; i++ {
			next := NewPEBS(PEBSConfig{BufferEntries: 8, OverflowPolicy: policy})
			fill(next, 40, 9000)
			next.Samples()
		}
		if !slices.Equal(merged, want) || !slices.Equal(own, wantOwn) || !slices.Equal(alone, wantAlone) {
			t.Errorf("policy %d: a later run rewrote a merged result", policy)
		}
		if policy == OverflowWrap && (len(own) != 8 || own[0].TSC != 1013 || own[7].TSC != 1020) {
			t.Errorf("wrapped ring drained as %v, want TSCs 1013..1020", own)
		}
	}
}
