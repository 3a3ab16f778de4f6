// Package queue provides the single-producer single-consumer software rings
// that connect pinned worker threads in the Fig. 5 architecture ("a thread
// executes a part of the whole task ... and is connected with other threads
// by software queues"), as DPDK's rte_ring connects RX → ACL → TX.
//
// Virtual-time semantics: each pushed element carries the producer core's
// timestamp. On pop, the consumer core's clock advances to at least
// push_time + transfer_latency, so causality holds across cores even though
// each core advances its private clock independently. Because the ring is
// strictly SPSC, element order and every timestamp are deterministic
// regardless of how the Go runtime schedules the two goroutines.
package queue

import (
	"repro/internal/sim"
)

// Config parameterizes a ring.
type Config struct {
	// Capacity is the ring size in elements.
	Capacity int
	// LatencyCycles models the cache-coherence transfer cost of moving an
	// element's cache line from producer to consumer core.
	LatencyCycles uint64
	// PushUops / PopUops are the instruction cost of one enqueue/dequeue,
	// retired on the calling core (they are real code and hence visible to
	// the sampler, like rte_ring_enqueue/dequeue).
	PushUops, PopUops uint64
}

// DefaultConfig resembles an rte_ring: 1024 slots, ~70 ns cross-core
// transfer (140 cycles at 2 GHz), ~40 uops per ring operation.
func DefaultConfig() Config {
	return Config{Capacity: 1024, LatencyCycles: 140, PushUops: 40, PopUops: 40}
}

type entry[T any] struct {
	v  T
	ts uint64
}

// SPSC is a single-producer single-consumer ring carrying values of type T
// between two cores.
type SPSC[T any] struct {
	ch  chan entry[T]
	cfg Config
}

// New creates a ring; zero-valued Config fields fall back to defaults.
func New[T any](cfg Config) *SPSC[T] {
	d := DefaultConfig()
	if cfg.Capacity == 0 {
		cfg.Capacity = d.Capacity
	}
	if cfg.LatencyCycles == 0 {
		cfg.LatencyCycles = d.LatencyCycles
	}
	if cfg.PushUops == 0 {
		cfg.PushUops = d.PushUops
	}
	if cfg.PopUops == 0 {
		cfg.PopUops = d.PopUops
	}
	return &SPSC[T]{ch: make(chan entry[T], cfg.Capacity), cfg: cfg}
}

// Push enqueues v, charging the enqueue cost to the producer core and
// stamping the element with the producer's clock. If the ring is full the
// producing goroutine blocks until space frees; its virtual clock does not
// advance while blocked (see package comment).
func (q *SPSC[T]) Push(c *sim.Core, v T) {
	c.Exec(q.cfg.PushUops)
	q.ch <- entry[T]{v: v, ts: c.Now()}
}

// Pop dequeues the next element, charging the dequeue cost to the consumer
// core and advancing its clock past the element's arrival time. It returns
// ok == false once the ring is closed and drained, mirroring a worker loop
// that exits when its input ring is torn down.
func (q *SPSC[T]) Pop(c *sim.Core) (v T, ok bool) {
	e, ok := <-q.ch
	if !ok {
		var zero T
		return zero, false
	}
	c.Exec(q.cfg.PopUops)
	c.AdvanceTo(e.ts + q.cfg.LatencyCycles)
	return e.v, true
}

// PopWait dequeues the next element WITHOUT advancing the consumer's clock
// or charging the dequeue cost: it returns the element and its earliest
// availability time (push timestamp + transfer latency). Busy-polling
// consumers — DPDK worker loops spin on their ring at 100% CPU — use this
// to learn how long they will spin and then burn that time as real,
// sampleable instructions before accepting the element:
//
//	v, arrival, ok := q.PopWait(c)
//	if arrival > c.Now() { spin(arrival - c.Now()) } // retires uops, gets sampled
//	c.Exec(popUops)
//
// ok is false once the ring is closed and drained.
func (q *SPSC[T]) PopWait(c *sim.Core) (v T, arrival uint64, ok bool) {
	e, ok := <-q.ch
	if !ok {
		var zero T
		return zero, 0, false
	}
	return e.v, e.ts + q.cfg.LatencyCycles, true
}

// PopCostUops returns the configured dequeue cost, for PopWait callers that
// charge it themselves.
func (q *SPSC[T]) PopCostUops() uint64 { return q.cfg.PopUops }

// Close closes the producer end; consumers drain remaining elements and
// then observe ok == false.
func (q *SPSC[T]) Close() { close(q.ch) }

// Len returns the number of queued elements (approximate while the two ends
// are concurrently active; exact in tests that pause both ends).
func (q *SPSC[T]) Len() int { return len(q.ch) }

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return cap(q.ch) }
