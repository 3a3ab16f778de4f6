package collector

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Sharded lock-free ingest. Connection goroutines only read frames (into
// pooled buffers) and do the cheap sequenced dedup/ack bookkeeping under
// src.mu; the decode and the StreamIntegrator push happen on the source's
// home-shard goroutine, which owns that source's in-set state outright and
// therefore runs it without any lock. Per-source ordering is preserved
// because a source maps to exactly one shard and each shard drains its
// queue FIFO.
//
// Lock order: src.mu → shard.mu (enqueue pushes while holding src.mu so
// the per-source tick order equals the queue order). The shard goroutine
// never holds shard.mu while taking src.mu.

// ingestItem is one unit of shard work: a frame to apply to a source, or
// (abort=true, zero view) an instruction to finalize the source's
// in-flight set because an epoch change or a sequence gap orphaned it.
type ingestItem struct {
	src   *Source
	view  wire.FrameView // holds one pooled-buffer ref; released after apply
	tick  uint64         // per-source enqueue ordinal, published as applyTick
	abort bool
	// epoch and seq number the frame on its connection (zero for a
	// synchronous feed): what the watermark settles on once it is applied.
	epoch, seq uint64
	res        chan error // receives the apply error (cap 1) when someone waits
}

// shard is one ingest goroutine and its FIFO queue.
type shard struct {
	c      *Collector
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ingestItem
	closed bool
	done   chan struct{}
	frames atomic.Uint64 // cumulative applied, for the imbalance gauge
}

// startShards creates and starts n ingest shards.
func (c *Collector) startShards(n int) {
	c.shards = make([]*shard, n)
	for i := range c.shards {
		sh := &shard{c: c, done: make(chan struct{})}
		sh.cond = sync.NewCond(&sh.mu)
		c.shards[i] = sh
		go sh.run()
	}
}

// stopShards closes every shard and waits for their queues to drain:
// everything enqueued before the close is applied, later pushes are
// refused. Idempotent.
func (c *Collector) stopShards() {
	c.shutShard.Do(func() {
		for _, sh := range c.shards {
			sh.mu.Lock()
			sh.closed = true
			sh.cond.Broadcast()
			sh.mu.Unlock()
		}
		for _, sh := range c.shards {
			<-sh.done
		}
	})
}

// push enqueues one item, returning false when the shard is closed (the
// caller then settles the item itself — the queue will not drain again).
func (sh *shard) push(it ingestItem) bool {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	sh.queue = append(sh.queue, it)
	sh.cond.Signal()
	sh.mu.Unlock()
	sh.c.metShardDepth.Add(1)
	return true
}

// run drains the queue until closed, then drains what remains and exits.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		sh.mu.Lock()
		for len(sh.queue) == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if len(sh.queue) == 0 {
			sh.mu.Unlock()
			return // closed and drained
		}
		batch := sh.queue
		sh.queue = nil
		sh.mu.Unlock()
		for i := range batch {
			sh.apply(&batch[i])
		}
	}
}

// apply runs one item on the shard goroutine: the decode + integrator push
// (lock-free — this goroutine owns the source's in-set state), then the
// tick/counter bookkeeping under src.mu.
func (sh *shard) apply(it *ingestItem) {
	c := sh.c
	src := it.src
	var ferr error
	if it.abort {
		if src.integ != nil {
			c.finishSet(src, wire.SetEnd{}, true, 0, 0)
		}
	} else {
		ferr = c.applyFrame(src, it)
		it.view.Release()
	}
	sh.frames.Add(1)
	c.metShardFrames.Inc()
	c.metShardDepth.Add(-1)

	src.mu.Lock()
	if !it.abort {
		src.frames++
	}
	if ferr != nil {
		// The frame arrived intact (CRC passed) but its payload is
		// undecodable; count it here — the connection goroutine has long
		// moved on.
		c.metCRCErrs.Inc()
		src.crcErrors++
		if it.view.Type == wire.TSymtab {
			src.setOpen = false // the set never opened
		}
	} else if it.view.Type == wire.THandoffBegin || it.view.Type == wire.THandoffSource {
		// An import settles after the target row changed (under the
		// target's own mutex): a snapshot between the two replays the
		// import, which importSource recognizes as a duplicate. SetEnd
		// settles inside finishSet, together with its accounting.
		src.wm.Settle(it.epoch, it.seq)
	}
	if it.tick > src.applyTick {
		src.applyTick = it.tick
	}
	src.applyCond.Broadcast()
	src.mu.Unlock()
	if it.res != nil {
		it.res <- ferr
	}
}

// enqueueLocked hands one item — a frame or a set-abort instruction — to
// src's home shard. Caller holds src.mu and fills everything but src and
// tick. The set-open flag tracks frame types at enqueue time so Start
// can decide abort questions without looking at shard-owned state. Returns
// the item's tick; waitApplied blocks until the shard has applied it.
func (c *Collector) enqueueLocked(src *Source, it ingestItem) uint64 {
	switch {
	case it.abort:
		src.setOpen = false
	case it.view.Type == wire.TSymtab:
		src.setOpen = true
	case it.view.Type == wire.TSetEnd:
		src.setOpen = false
	}
	src.enqTick++
	it.src, it.tick = src, src.enqTick
	if !src.shard.push(it) {
		// Collector shut down: the frame is dropped, but tick accounting
		// must still advance or waiters would hang.
		it.view.Release()
		if it.tick > src.applyTick {
			src.applyTick = it.tick
		}
		src.applyCond.Broadcast()
		if it.res != nil {
			it.res <- fmt.Errorf("collector: closed")
		}
	}
	return it.tick
}

// waitApplied blocks until src's home shard has applied every frame
// enqueued up to tick. The shards drain fully on shutdown, so the wait
// always terminates.
func waitApplied(src *Source, tick uint64) {
	src.mu.Lock()
	for src.applyTick < tick {
		src.applyCond.Wait()
	}
	src.mu.Unlock()
}

// ShardLoad reports cumulative frames applied per ingest shard, and
// refreshes the imbalance gauge: permille of applied frames by which the
// busiest shard exceeds the mean (0 = perfectly even).
func (c *Collector) ShardLoad() []uint64 {
	load := make([]uint64, len(c.shards))
	var max, total uint64
	for i, sh := range c.shards {
		load[i] = sh.frames.Load()
		total += load[i]
		if load[i] > max {
			max = load[i]
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(load))
		c.metShardImbal.Set((float64(max) - mean) / mean * 1000)
	}
	return load
}
