package dataplane

import (
	"fmt"
	"slices"

	"repro/internal/acl"
	"repro/internal/lpm"
)

// Policy is the chain's control-plane state: the rule set compiled into a
// Matcher and the per-family route tables, plus the inputs they were built
// from (the ground truth reads those). NewPolicy builds it once, the way a
// rule push builds an rte_acl context; it is read-only after, so any
// number of concurrent Runs may share one. Never write its fields.
type Policy struct {
	Rules  []Rule
	Routes RouteConfig
	// Build shapes the compiled matcher (zero fields take
	// acl.DefaultBuildConfig's).
	Build acl.BuildConfig

	matcher *Matcher
	v4      *lpm.Table // route:route0, consulted only for allowed packets
	v6      *lpm.Table6
}

// NewPolicy validates and compiles rules under build and builds both route
// tables. It keeps copies of rules and routes, so the caller's slices stay
// its own.
func NewPolicy(rules []Rule, routes RouteConfig, build acl.BuildConfig) (*Policy, error) {
	m, err := Compile(rules, build)
	if err != nil {
		return nil, err
	}
	v4, err := lpm.Build(routes.V4, lpm.Config{})
	if err != nil {
		return nil, fmt.Errorf("dataplane: v4 routes: %w", err)
	}
	v6, err := lpm.Build6(routes.V6)
	if err != nil {
		return nil, fmt.Errorf("dataplane: v6 routes: %w", err)
	}
	return &Policy{
		Rules:   slices.Clone(rules),
		Routes:  RouteConfig{V4: slices.Clone(routes.V4), V6: slices.Clone(routes.V6)},
		Build:   build,
		matcher: m,
		v4:      v4,
		v6:      v6,
	}, nil
}

// Matcher returns the compiled rule set, for shape reporting.
func (p *Policy) Matcher() *Matcher { return p.matcher }

// classify returns the acl0 stage's verdict for key, charging the walk to
// meter (nil: untimed). Route fills NextHop for an allowed packet.
func (p *Policy) classify(key *[KeyLen]byte, scratch []uint64, meter acl.Meter) Verdict {
	idx, ok, _ := p.matcher.set.Classify(key[:], scratch, meter)
	if !ok {
		return Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
	}
	return Verdict{Rule: idx, Action: p.Rules[idx].Action, NextHop: lpm.NoRoute}
}

// route looks pkt's destination up in its family's table, charging the
// walk to that family's meter (nil meters: untimed).
func (p *Policy) route(pkt *Packet, v4 *lpm.Meter, v6 *lpm.Meter6) (nextHop int) {
	if pkt.V6 {
		nextHop, _ = p.v6.Lookup(pkt.Dst, v6)
		return nextHop
	}
	nextHop, _ = p.v4.Lookup(v4addr(pkt.Dst), v4)
	return nextHop
}
