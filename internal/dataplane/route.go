package dataplane

import "repro/internal/lpm"

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

// v4addr extracts the IPv4 address from the v4-mapped layout.
func v4addr(a [16]byte) uint32 {
	return uint32(a[12])<<24 | uint32(a[13])<<16 | uint32(a[14])<<8 | uint32(a[15])
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
