package spool

import (
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// benchDir returns a spool directory for benchmarking, preferring tmpfs:
// the gate pins the *code-side* cost of durability (encode + CRC + copy +
// buffered flush), and on CI containers the block device's throughput
// swings several-fold run to run, which an absolute-ns gate would read as
// a code regression. Real-disk behavior is covered by the recovery tests;
// the gate is about the hot enqueue path staying cheap.
func benchDir(b *testing.B) string {
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		dir, err := os.MkdirTemp("/dev/shm", "spoolbench")
		if err == nil {
			b.Cleanup(func() { os.RemoveAll(dir) })
			return dir
		}
	}
	return b.TempDir()
}

// BenchmarkSpoolAppend measures the durability tax on the shipper's hot
// enqueue path: appending one pre-encoded 512-marker batch frame (the
// shipper's default batch size) to the active segment. This is the cost
// added to every EnqueueFrame when spooling is on — durability must never
// silently tax the never-stall-the-workload contract.
func BenchmarkSpoolAppend(b *testing.B) {
	ms := make([]trace.Marker, 512)
	tsc := uint64(1 << 40)
	for i := range ms {
		tsc += 1500
		kind := trace.ItemBegin
		if i%2 == 1 {
			kind = trace.ItemEnd
		}
		ms[i] = trace.Marker{Item: uint64(i / 2), TSC: tsc, Core: int32(i & 1), Kind: kind}
	}
	frame := wire.AppendFrame(nil, wire.Frame{Type: wire.TMarkers, Payload: wire.AppendMarkers(nil, ms)})

	s, _, err := Open(Config{Dir: benchDir(b), Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(frame); err != nil {
			b.Fatal(err)
		}
		// Keep the disk footprint bounded: ack in batches well off the
		// measured path's common case.
		if i%4096 == 4095 {
			if err := s.Ack(s.NextSeq() - 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
