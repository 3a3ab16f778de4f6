// Package nettest models the GNET hardware network tester of the paper's
// evaluation (§IV-C2, [17]): packets are injected "one by one with a short
// interval (not burstly) so that DPDK does not batch them", and per-packet
// latency is measured from NIC ingress to NIC egress by the tester itself —
// independent of any instrumentation inside the system under test, which is
// what makes it usable as the overhead meter of Fig. 10.
//
// The tester occupies simulator cores of its own (a generator and a sink),
// standing in for the tester's hardware timeline; its queue operations are
// configured to cost nothing so it never perturbs the system under test.
package nettest

import (
	"repro/internal/queue"
	"repro/internal/sim"
)

// Stamped wraps a payload with the tester's ingress timestamp, playing the
// role of the wire-format timestamp GNET embeds in its test packets.
type Stamped[T any] struct {
	Payload    T
	IngressTSC uint64
}

// Wire returns a queue configuration for a 10 GbE-like link as seen from
// the tester: transfer latency only, no instruction cost on the tester side
// (the tester is hardware; its cost model must not perturb measurements).
func Wire(capacity int, latencyCycles uint64) queue.Config {
	return queue.Config{Capacity: capacity, LatencyCycles: latencyCycles, PushUops: 1, PopUops: 1}
}

// Generate paces items onto the out ring, one every gap cycles of the
// generator core's clock, stamping each with its injection time. Closes the
// ring when done.
func Generate[T any](c *sim.Core, out *queue.SPSC[Stamped[T]], items []T, gap uint64) {
	for i, it := range items {
		c.AdvanceTo(uint64(i) * gap)
		out.Push(c, Stamped[T]{Payload: it, IngressTSC: c.Now()})
	}
	out.Close()
}

// Latency is one measured per-item latency.
type Latency[T any] struct {
	Payload T
	// Cycles is egress time minus ingress time on the tester's clock.
	Cycles uint64
}

// Drain consumes the egress ring until it closes, measuring per-item
// latency at the moment of arrival on the sink core (which, being otherwise
// idle, observes exactly arrival time).
func Drain[T any](c *sim.Core, in *queue.SPSC[Stamped[T]]) []Latency[T] {
	var out []Latency[T]
	for {
		s, ok := in.Pop(c)
		if !ok {
			return out
		}
		out = append(out, Latency[T]{Payload: s.Payload, Cycles: c.Now() - s.IngressTSC})
	}
}
