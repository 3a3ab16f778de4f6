package dataplane

import (
	"fmt"

	"repro/internal/lpm"
)

// Verdict is the chain's complete per-packet decision: which rule fired,
// what it said, and (for allowed packets) where the route stage sends the
// packet. NextHop is lpm.NoRoute for denied or unroutable packets. This
// is what the flow cache memoizes and what the generator's ground truth
// predicts.
type Verdict struct {
	Rule    int // rule index, -1 if no rule matched
	Action  Action
	NextHop int
}

// NoMatchAction is the default for packets no rule covers: drop, the
// conventional default-deny posture.
const NoMatchAction = Deny

// RouteConfig holds the per-family route tables.
type RouteConfig struct {
	V4 []lpm.Route
	V6 []lpm.Route6
}

// Router is the route:route0 stage — per-family LPM over the packet's
// destination, consulted only for allowed packets.
type Router struct {
	v4 *lpm.Table
	v6 *lpm.Table6
}

// NewRouter builds both family tables.
func NewRouter(cfg RouteConfig) (*Router, error) {
	v4, err := lpm.Build(cfg.V4, lpm.Config{})
	if err != nil {
		return nil, fmt.Errorf("dataplane: v4 routes: %w", err)
	}
	v6, err := lpm.Build6(cfg.V6)
	if err != nil {
		return nil, fmt.Errorf("dataplane: v6 routes: %w", err)
	}
	return &Router{v4: v4, v6: v6}, nil
}

// v4addr extracts the IPv4 address from the v4-mapped layout.
func v4addr(a [16]byte) uint32 {
	return uint32(a[12])<<24 | uint32(a[13])<<16 | uint32(a[14])<<8 | uint32(a[15])
}

// Lookup routes p's destination in its family's table, charging the walk
// to that family's meter (nil meters: untimed).
func (rt *Router) Lookup(p *Packet, v4 *lpm.Meter, v6 *lpm.Meter6) (nextHop int) {
	if p.V6 {
		nextHop, _ = rt.v6.Lookup(p.Dst, v6)
		return nextHop
	}
	nextHop, _ = rt.v4.Lookup(v4addr(p.Dst), v4)
	return nextHop
}

// GroundTruth computes the chain's verdict for p from first principles —
// linear rule scan, then linear route scan for allowed packets. The
// generator labels packets with it and the pipeline's VerifyTruth holds
// the traced chain to it.
func GroundTruth(rules []Rule, routes RouteConfig, p *Packet) Verdict {
	idx, ok := LinearClassify(rules, p)
	if !ok {
		return Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
	}
	v := Verdict{Rule: idx, Action: rules[idx].Action, NextHop: lpm.NoRoute}
	if v.Action == Allow {
		if p.V6 {
			v.NextHop = lpm.LinearLookup6(routes.V6, p.Dst)
		} else {
			v.NextHop = lpm.LinearLookup(routes.V4, v4addr(p.Dst))
		}
	}
	return v
}
