package faults

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/hashx"
)

// NetMode selects a network fault class for the wire transport — the three
// ways a fleet link actually dies under a shipping workload.
type NetMode uint8

const (
	// NetNone injects nothing.
	NetNone NetMode = iota
	// NetPartition models a hard partition: the connection carries
	// PartitionAfterBytes bytes, then every further write fails and the
	// connection closes. Reconnections hit the same wall, so the shipper's
	// backoff and non-blocking enqueue are what keep the worker healthy.
	NetPartition
	// NetLatency models a slow link: every write is delayed by Delay.
	// Nothing is lost; freshness is.
	NetLatency
	// NetCutFrame models a flaky link that dies mid-frame: each write is,
	// with probability CutRate, truncated halfway and the connection
	// killed — the collector sees a checksum-protected partial frame and
	// must resynchronize on the shipper's next connection.
	NetCutFrame
)

// String implements fmt.Stringer.
func (m NetMode) String() string {
	switch m {
	case NetNone:
		return "none"
	case NetPartition:
		return "partition"
	case NetLatency:
		return "latency"
	case NetCutFrame:
		return "cutframe"
	}
	return fmt.Sprintf("netmode(%d)", uint8(m))
}

// NetPlan is the network half of a fault plan: a deterministic description
// of how to perturb a shipper's connection at the net.Conn layer. The zero
// value injects nothing.
type NetPlan struct {
	// Mode selects the fault class.
	Mode NetMode
	// Seed drives the cut-frame coin flips. Successive connections from
	// one WrapDial advance the seed, so a retried frame does not hit an
	// identical cut forever.
	Seed uint64
	// PartitionAfterBytes is the byte budget before a NetPartition link
	// goes dark (default 64 KiB).
	PartitionAfterBytes int
	// Delay is the per-write delay under NetLatency (default 2ms).
	Delay time.Duration
	// CutRate is the per-write probability of a mid-frame cut under
	// NetCutFrame, in [0, 1) (default 0.25).
	CutRate float64
}

// Active reports whether the plan injects anything.
func (p NetPlan) Active() bool { return p.Mode != NetNone }

// withDefaults fills the per-mode defaults.
func (p NetPlan) withDefaults() NetPlan {
	if p.PartitionAfterBytes <= 0 {
		p.PartitionAfterBytes = 64 << 10
	}
	if p.Delay <= 0 {
		p.Delay = 2 * time.Millisecond
	}
	if p.CutRate <= 0 || p.CutRate >= 1 {
		p.CutRate = 0.25
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Wrap returns conn perturbed per the plan. The seed differentiates
// successive connections (see WrapDial).
func (p NetPlan) Wrap(conn net.Conn, seed uint64) net.Conn {
	if !p.Active() {
		return conn
	}
	p = p.withDefaults()
	return &faultConn{Conn: conn, plan: p, rng: hashx.SplitMix64{State: seed}}
}

// WrapDial wraps a dial function so every connection it produces is
// perturbed, with the seed advancing per connection — the pattern of
// damage differs across reconnects, as real link weather does, while the
// whole schedule stays a deterministic function of the plan's Seed.
//
// The dial function is deliberately generic (addr → conn) so the ship
// package's DialFunc fits without this package importing it.
func WrapDial[D ~func(addr string) (net.Conn, error)](p NetPlan, dial D) D {
	if !p.Active() {
		return dial
	}
	p = p.withDefaults()
	var mu sync.Mutex
	connSeq := p.Seed
	return func(addr string) (net.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		connSeq += 0x9e3779b97f4a7c15
		seed := connSeq
		mu.Unlock()
		return p.Wrap(conn, seed), nil
	}
}

// faultConn perturbs writes per a NetPlan. Reads pass through — the wire
// protocol's data flows shipper→collector, and it is the shipper's sends
// that the fleet fault model degrades.
type faultConn struct {
	net.Conn
	plan    NetPlan
	rng     hashx.SplitMix64
	written int
	dead    bool
	mu      sync.Mutex
}

// errInjected is the failure surfaced by injected faults.
type errInjected struct{ mode NetMode }

func (e errInjected) Error() string { return fmt.Sprintf("faults: injected net fault (%s)", e.mode) }

// Timeout and Temporary mark the error as a plain connection failure.
func (errInjected) Timeout() bool   { return false }
func (errInjected) Temporary() bool { return false }

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, errInjected{c.plan.Mode}
	}
	switch c.plan.Mode {
	case NetLatency:
		time.Sleep(c.plan.Delay)
	case NetPartition:
		if c.written >= c.plan.PartitionAfterBytes {
			c.dead = true
			c.Conn.Close()
			return 0, errInjected{c.plan.Mode}
		}
		budget := c.plan.PartitionAfterBytes - c.written
		if len(b) > budget {
			n, _ := c.Conn.Write(b[:budget])
			c.written += n
			c.dead = true
			c.Conn.Close()
			return n, errInjected{c.plan.Mode}
		}
	case NetCutFrame:
		if c.rng.Float64() < c.plan.CutRate {
			// Deliver half the frame, then die mid-write.
			n, _ := c.Conn.Write(b[:len(b)/2])
			c.dead = true
			c.Conn.Close()
			return n, errInjected{c.plan.Mode}
		}
	}
	n, err := c.Conn.Write(b)
	c.written += n
	return n, err
}
