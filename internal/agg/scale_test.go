package agg

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/trace"
)

// TestScaleHarness is ISSUE 7's acceptance harness: scaleSources sources,
// each its own shipper, consistent-hashed across a scaleShards-shard tier
// feeding one aggregator — with every connection an in-memory pipe, so
// the only resource consumed per shipper is a goroutine. The merged fleet
// report must be byte-identical to a single collector that integrated
// every source directly.
//
// The tier-1 run is trimmed (see scale_params_default.go); `-tags scale`
// swaps in the full sweep of thousands of concurrent shippers over tens
// of thousands of sources.
func TestScaleHarness(t *testing.T) {
	templates := make([]*trace.Set, len(scaleTemplateRequests))
	for i, req := range scaleTemplateRequests {
		templates[i] = workloadSet(t, req)
	}

	// Two-tier side: ring, shards, aggregator.
	a, err := New(Config{TopK: scaleTopK, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	aggDial := pipeDial(a.HandleConn)
	ring := NewRing(shardNames(scaleShards)...)
	shards := map[string]*shardProc{}
	for _, id := range ring.Shards() {
		shards[id] = startShard(t, id, t.TempDir(), collector.Config{TopK: scaleTopK}, aggDial)
	}
	defer func() {
		for _, sp := range shards {
			sp.stop()
		}
	}()

	// Reference side: one collector owning everything.
	ref, err := collector.New(collector.Config{TopK: scaleTopK, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	// Fan the sources out, wave-limited to scaleConcurrency in-flight
	// shippers. Each source ships the same template twice: once to its
	// ring owner, once to the reference collector.
	perShard := map[string]int{}
	for i := 0; i < scaleSources; i++ {
		perShard[ring.Owner(scaleSourceID(i))]++
	}
	for _, id := range ring.Shards() {
		t.Logf("ring assignment: %s owns %d/%d sources", id, perShard[id], scaleSources)
		if perShard[id] == 0 {
			t.Fatalf("shard %s owns no sources — the sweep would not exercise it", id)
		}
	}

	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, scaleConcurrency)
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) { errOnce.Do(func() { firstEr = err }) }
	start := time.Now()
	for i := 0; i < scaleSources; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			src := scaleSourceID(i)
			set := templates[i%len(templates)]
			owner := shards[ring.Owner(src)]
			if err := shipOne(src, set, owner.coll); err != nil {
				fail(fmt.Errorf("%s → %s: %w", src, owner.id, err))
				return
			}
			if err := shipOne(src, set, ref); err != nil {
				fail(fmt.Errorf("%s → reference: %w", src, err))
			}
		}(i)
	}
	wg.Wait()
	if firstEr != nil {
		t.Fatal(firstEr)
	}
	t.Logf("shipped %d sources (2× each) in %v", scaleSources, time.Since(start))

	for id, sp := range shards {
		mustDrain(t, "uplink "+id, sp.uplink, 120*time.Second)
		t.Logf("shard %s: frames applied %v", id, sp.coll.ShardLoad())
	}
	merged := waitMerged(t, a, scaleSources, 1, 120*time.Second)

	got, want := renderFleet(merged), renderFleet(ref.Fleet())
	if !bytes.Equal(got, want) {
		t.Fatalf("merged fleet report differs from single-collector report: %s",
			firstDiff(string(got), string(want)))
	}
	if len(merged.TopSlow) != scaleTopK {
		t.Fatalf("merged top-K has %d items, want %d", len(merged.TopSlow), scaleTopK)
	}
}

// scaleSourceID names source i; zero-padded so lexicographic source order
// is stable at any scale.
func scaleSourceID(i int) string { return fmt.Sprintf("src-%06d", i) }

// shipOne runs one worker shipper end to end against coll over a pipe:
// ship the set, close, wait for the shipper to flush, then poll until the
// collector has completed the set. Test-goroutine-safe: errors return
// rather than t.Fatal.
func shipOne(source string, set *trace.Set, coll *collector.Collector) error {
	s, err := ship.New(ship.Config{
		Addr: "pipe", Source: source, Dial: pipeDial(coll.HandleConn),
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.ShipSet(set); err != nil {
		return err
	}
	s.Close()
	if err := <-done; err != nil {
		return fmt.Errorf("shipper run: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if src := coll.Source(source); src != nil && src.Sets() >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("collector never finished the set")
		}
		time.Sleep(time.Millisecond)
	}
}
