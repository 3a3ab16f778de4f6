package agg

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spool"
	"repro/internal/symtab"
	"repro/internal/wire"
)

// TestUplinkConcurrentSummaries: two sources' summaries, encoded by
// OnSummary calls racing on their own goroutines, reach the uplink's spool
// as frames whose payloads are AppendFleetSummary(nil, fs), byte for byte.
// The summaries grow and shrink, so a reused encode buffer is both
// outgrown and left longer than the next payload.
func TestUplinkConcurrentSummaries(t *testing.T) {
	const perSource = 40
	dir := t.TempDir()
	u, err := NewUplink(UplinkConfig{Addr: "agg", Shard: "shard-a", SpoolDir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	tab := symtab.NewTable()
	fns := []*symtab.Fn{tab.MustRegister("parse", 2048), tab.MustRegister("lookup", 4096)}
	summary := func(source string, set int) wire.FleetSummary {
		fs := wire.FleetSummary{Source: source, FreqHz: 2_000_000_000, Sets: uint64(set), MeanConf: 1, GapLine: "ok"}
		for i := 0; i < (set*37)%300; i++ {
			fs.Items = append(fs.Items, core.Item{
				ID: uint64(i + 1), BeginTSC: uint64(i) * 1000, EndTSC: uint64(i)*1000 + 700, Confidence: 1,
				Funcs: []core.FuncSpan{{Fn: fns[i%2], Samples: 1 + i%3, FirstTSC: uint64(i)*1000 + 10, LastTSC: uint64(i)*1000 + 600}},
			})
		}
		return fs
	}
	want := map[string][]byte{}
	for _, source := range []string{"worker-0", "worker-1"} {
		for set := 1; set <= perSource; set++ {
			p, err := wire.AppendFleetSummary(nil, summary(source, set))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s/%d", source, set)] = p
		}
	}
	var wg sync.WaitGroup
	for _, source := range []string{"worker-0", "worker-1"} {
		wg.Add(1)
		go func(source string) {
			defer wg.Done()
			for set := 1; set <= perSource; set++ {
				u.OnSummary(summary(source, set))
			}
		}(source)
	}
	wg.Wait()
	// A Run on a dead context returns at once and closes the spool.
	u.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	u.Run(ctx)

	spl, _, err := spool.Open(spool.Config{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer spl.Close()
	got := 0
	err = spl.Frames(1, func(seq uint64, raw []byte) error {
		f, rest, err := wire.ParseFrameView(raw)
		if err != nil || len(rest) != 0 || f.Type != wire.TFleetSummary {
			return fmt.Errorf("frame %d: %s, %v (%d bytes over)", seq, f.Type, err, len(rest))
		}
		fs, err := wire.DecodeFleetSummary(f.Payload)
		if err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		key := fmt.Sprintf("%s/%d", fs.Source, fs.Sets)
		if !bytes.Equal(f.Payload, want[key]) {
			return fmt.Errorf("frame %d (%s): payload differs from AppendFleetSummary(nil, fs)", seq, key)
		}
		delete(want, key)
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*perSource || len(want) != 0 {
		t.Fatalf("%d summary frames spooled, %d summaries missing", got, len(want))
	}
}
