package ship

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// BenchmarkShipSet ships a fleet_bulk-shaped set (2,000 items, a PEBS
// sample every 1,000 uops, ≈21 k records) into a spool-less shipper per
// op; an ack of everything after each set recycles the frame buffers, as
// the collector's would.
func BenchmarkShipSet(b *testing.B) {
	set := bulkSet(b)
	s, err := New(Config{Addr: "x", Source: "hostA", Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	var cs connState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ShipSet(set); err != nil {
			b.Fatal(err)
		}
		s.applyAck(wire.Ack{Seq: s.nextSeq - 1}, &cs)
	}
}
