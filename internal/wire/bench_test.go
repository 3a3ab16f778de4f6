package wire

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

func benchRecords() ([]trace.Marker, []pmu.Sample) {
	markers := make([]trace.Marker, 512)
	tsc := uint64(1 << 40)
	for i := range markers {
		tsc += 2000
		kind := trace.ItemBegin
		if i%2 == 1 {
			kind = trace.ItemEnd
		}
		markers[i] = trace.Marker{Item: uint64(i / 2), TSC: tsc, Core: int32(i % 4), Kind: kind}
	}
	samples := make([]pmu.Sample, 2048)
	tsc = uint64(1 << 40)
	for i := range samples {
		tsc += 500
		samples[i] = pmu.Sample{TSC: tsc, IP: 0x400000 + uint64(i%4096)*16, Core: int32(i % 4), Event: pmu.UopsRetired}
	}
	return markers, samples
}

// feedRun is one single-kind run of a set in feed order.
type feedRun struct {
	ms []trace.Marker
	ss []pmu.Sample
}

// benchFeed interleaves benchRecords by TSC, markers first at a tie, and
// cuts the result into runs at every kind flip: the shape a shipper's
// record stream has.
func benchFeed() []feedRun {
	markers, samples := benchRecords()
	var feed []feedRun
	for i, j := 0, 0; i < len(markers) || j < len(samples); {
		if i < len(markers) && (j == len(samples) || markers[i].TSC <= samples[j].TSC) {
			k := i
			for k < len(markers) && (j == len(samples) || markers[k].TSC <= samples[j].TSC) {
				k++
			}
			feed, i = append(feed, feedRun{ms: markers[i:k]}), k
			continue
		}
		k := j
		for k < len(samples) && (i == len(markers) || samples[k].TSC < markers[i].TSC) {
			k++
		}
		feed, j = append(feed, feedRun{ss: samples[j:k]}), k
	}
	return feed
}

// appendRecordFrames encodes the feed as TRecords frames of at most
// MinBufBytes each, as a shipper fills them: a run that would overflow the
// open frame is encoded into the next one instead. dst needs the capacity
// for the whole encoding, or the encoders allocate. It returns the
// extended slice and the number of frames.
func appendRecordFrames(dst []byte, feed []feedRun) ([]byte, int) {
	frames := 1
	dst, start := BeginFrame(dst, TRecords)
	var base uint64
	for _, r := range feed {
		for {
			mark := len(dst)
			var next uint64
			if len(r.ms) > 0 {
				dst, next = AppendMarkerRun(dst, base, r.ms), r.ms[len(r.ms)-1].TSC
			} else {
				dst, next = AppendSampleRun(dst, base, r.ss), r.ss[len(r.ss)-1].TSC
			}
			if len(dst)-start+4 <= MinBufBytes || mark == start+5 {
				base = next
				break
			}
			dst, _ = EndFrame(dst[:mark], start)
			dst, start = BeginFrame(dst, TRecords)
			base, frames = 0, frames+1
		}
	}
	dst, _ = EndFrame(dst, start)
	return dst, frames
}

// walkFrames reads frames frames from rd and walks every record with
// IterRecords, releasing each view after its walk. It returns the marker
// and sample counts.
func walkFrames(rd *FrameReader, frames int) (nm, ns int, err error) {
	var m trace.Marker
	var sm pmu.Sample
	for f := 0; f < frames; f++ {
		v, err := rd.Next()
		if err != nil {
			return nm, ns, err
		}
		it := IterRecords(v.Payload)
		for {
			k := it.Next(&m, &sm)
			if k == 0 {
				break
			}
			if k == TMarkers {
				nm++
			} else {
				ns++
			}
		}
		err = it.Err()
		v.Release()
		if err != nil {
			return nm, ns, err
		}
	}
	return nm, ns, nil
}

// BenchmarkWireEncodeDecode is the shipping-throughput baseline, on the
// path the product runs: a 512-marker +
// 2048-sample set in feed order encoded with AppendMarkerRun/
// AppendSampleRun into TRecords frames of at most 4 KiB, built in place in
// a pooled buffer, read back through a pooled FrameReader, and walked with
// IterRecords — the per-set cost a shipper and a collector each pay.
// Steady state is allocation-free (TestFrameReaderZeroAlloc pins it).
func BenchmarkWireEncodeDecode(b *testing.B) {
	markers, samples := benchRecords()
	feed := benchFeed()
	pool := NewFramePool(obs.NewRegistry())

	var wireBytes int64
	var stream bytes.Buffer
	enc := pool.Get(64 << 10)
	defer enc.Release()
	rd := pool.NewReader(&stream)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, frames := appendRecordFrames(enc.Bytes()[:0], feed)
		if cap(dst) > enc.Cap() {
			b.Fatal("encode outgrew pooled buffer") // sizing bug, would alloc
		}
		stream.Reset()
		stream.Write(dst)
		wireBytes += int64(len(dst))

		nm, ns, err := walkFrames(rd, frames)
		if err != nil {
			b.Fatal(err)
		}
		if nm != len(markers) || ns != len(samples) {
			b.Fatalf("lost records: %d/%d markers, %d/%d samples", nm, len(markers), ns, len(samples))
		}
	}
	b.StopTimer()
	b.SetBytes(wireBytes / int64(b.N))
	b.ReportMetric(float64(len(markers)+len(samples)), "records/op")
}

// summaryItems reconstructs the collector tests' 2,000-request workload
// (two cores, a table_lookup and a render_reply span per request, every
// 37th request slow, PEBS at reset 4000): the items one set's
// TFleetSummary carries.
func summaryItems(b *testing.B, requests int) ([]core.Item, uint64) {
	const cores = 2
	m := sim.MustNew(sim.Config{Cores: cores})
	lookup := m.Syms.MustRegister("table_lookup", 4096)
	render := m.Syms.MustRegister("render_reply", 2048)
	pebs := make([]*pmu.PEBS, cores)
	log := trace.NewMarkerLog(cores, 0)
	perCore := requests / cores
	for ci := 0; ci < cores; ci++ {
		first := uint64(ci*perCore) + 1
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 4000, pebs[ci])
		m.MustSpawn(ci, func(c *sim.Core) {
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				log.Mark(c, id, trace.ItemBegin)
				c.Call(lookup, func() {
					for l := 0; l < 150; l++ {
						c.Exec(14)
					}
					if id%37 == 0 {
						c.Exec(25000)
					}
				})
				c.Call(render, func() { c.Exec(5000) })
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(700)
			}
		})
	}
	m.Wait()
	var samples []pmu.Sample
	for _, p := range pebs {
		samples = append(samples, p.Samples()...)
	}
	set := trace.NewSet(m, log, samples)
	a, err := core.Integrate(set, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return a.Items, set.FreqHz
}

// BenchmarkFleetSummaryDecode decodes one 2,000-item set's TFleetSummary
// payload: the per-set cost a collector would add if it kept each set as
// its encoded block and decoded it for OnSummary.
func BenchmarkFleetSummaryDecode(b *testing.B) {
	items, freq := summaryItems(b, 2000)
	payload, err := AppendFleetSummary(nil, FleetSummary{Source: "w1", FreqHz: freq, Sets: 1, Items: items})
	if err != nil {
		b.Fatal(err)
	}
	spans := 0
	for i := range items {
		spans += len(items[i].Funcs)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := DecodeFleetSummary(payload)
		if err != nil || len(fs.Items) != len(items) {
			b.Fatalf("decoded %d items, err %v", len(fs.Items), err)
		}
	}
	b.ReportMetric(float64(len(payload)), "payload-B")
	b.ReportMetric(float64(spans), "spans")
}
