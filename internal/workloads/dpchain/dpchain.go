// Package dpchain registers the dataplane function chain — parse →
// flow-cache → acl0 → route0 → emit over the compiled 5-tuple matcher —
// as a canonical traced workload, the way dbsim registers the database
// engine. The policy and route tables here are the fixture every
// consumer shares: `fluct -serve -workload dataplane` rounds, `fluct
// -ship` fleet rounds, and the dpsweep experiment all run this spec, so
// a verdict like "acl0_classify gained 1.2µs" means the same thing
// everywhere.
package dpchain

import (
	"fmt"
	"sync"

	"repro/internal/acl"
	"repro/internal/dataplane"
	"repro/internal/hashx"
	"repro/internal/lpm"
	"repro/internal/trace"
)

// Policy returns the canonical dual-family rule set. Destinations are
// deliberately unconstrained (any4/any6) for most rules so the
// depth-skew scenario can steer destination addresses toward deep routes
// without changing which rules match — route cost moves, ACL cost
// stays put.
func Policy() []dataplane.Rule {
	return dataplane.MustParseRules(`
		# v4 service plane
		allow tcp 10.0.0.0/8 -> any4 dport 80 prio 10
		allow tcp 10.0.0.0/8 -> any4 dport 443 prio 10
		allow udp 10.0.0.0/8 -> any4 dport 53 prio 10
		allow udp 10.0.0.0/8 -> any4 sport 1024-65535 dport 4789 vlan 100-200 prio 12
		deny tcp 10.3.0.0/16 -> any4 prio 20
		allow icmp any4 -> any4 prio 0
		allow any any4 -> any4 prio -1

		# v6 service plane
		allow tcp 2001:db8::/32 -> any6 dport 80 prio 10
		allow udp 2001:db8::/32 -> any6 dport 53 prio 10
		deny udp 2001:db8:3::/48 -> any6 prio 20
		allow icmp any6 -> any6 prio 0
		allow any any6 -> any6 prio -1
	`)
}

// Routes returns the canonical per-family tables: shallow coverage for
// most of the space plus deep prefixes (beyond the v4 first level; /96
// and /112 in v6) that cost extra probes — the organic route-depth
// fluctuation.
func Routes() dataplane.RouteConfig {
	return dataplane.RouteConfig{
		V4: []lpm.Route{
			{Prefix: 0x00000000, Len: 0, NextHop: 1},
			{Prefix: 0x0a000000, Len: 8, NextHop: 2},  // 10/8
			{Prefix: 0x0a010000, Len: 16, NextHop: 3}, // 10.1/16
			{Prefix: 0x0a030000, Len: 16, NextHop: 4}, // 10.3/16
			{Prefix: 0x0a010200, Len: 24, NextHop: 5}, // 10.1.2/24 (deep)
			{Prefix: 0x0a010203, Len: 32, NextHop: 6}, // 10.1.2.3/32 (deep)
			{Prefix: 0x0a020400, Len: 24, NextHop: 7}, // 10.2.4/24 (deep)
		},
		V6: []lpm.Route6{
			{Prefix: lpm.MustAddr6("::"), Len: 0, NextHop: 11},
			{Prefix: lpm.MustAddr6("2001:db8::"), Len: 32, NextHop: 12},
			{Prefix: lpm.MustAddr6("2001:db8:1::"), Len: 48, NextHop: 13},
			{Prefix: lpm.MustAddr6("2001:db8::"), Len: 96, NextHop: 14},      // deep
			{Prefix: lpm.MustAddr6("2001:db8::42:0"), Len: 112, NextHop: 15}, // deep
		},
	}
}

// ChurnRules returns the post-churn policy: the canonical rules plus n
// deterministic port-range-heavy extras, the shape a production rule
// push has (each extra expands to several atoms, so the compiled matcher
// grows more tries and the acl0 walk widens).
func ChurnRules(n int) []dataplane.Rule {
	rules := Policy()
	rng := hashx.SplitMix64{State: 0x636875726e} // "churn"
	next := rng.Next
	for i := 0; i < n; i++ {
		v6 := next()%3 == 0
		src := fmt.Sprintf("10.%d.%d.0/24", next()%4, next()%256)
		if v6 {
			src = fmt.Sprintf("2001:db8:%x::/48", next()%8)
		}
		dst := "any4"
		if v6 {
			dst = "any6"
		}
		action := "allow"
		if next()%4 == 0 {
			action = "deny"
		}
		lo := 1000 + next()%20000
		hi := lo + 100 + next()%30000
		line := fmt.Sprintf("%s tcp %s -> %s dport %d-%d prio %d",
			action, src, dst, lo, hi, next()%8)
		r, err := dataplane.ParseRule(line)
		if err != nil {
			panic(fmt.Sprintf("dpchain: churn rule %q: %v", line, err))
		}
		rules = append(rules, r)
	}
	return rules
}

// canonical is the spec compiled once, on first use rather than at
// package init: a binary that links dpchain but runs no round pays nothing.
var canonical = sync.OnceValues(func() (*dataplane.Policy, error) {
	return dataplane.NewPolicy(Policy(), Routes(), acl.BuildConfig{})
})

// BaseConfig returns the canonical pipeline configuration over the spec:
// the shared compiled policy, warm flow cache, pooled flows with fresh
// arrivals, a realistic header mix. Scenario runners override the onset
// fields.
func BaseConfig(workers, packets int) dataplane.PipelineConfig {
	pol, err := canonical()
	if err != nil {
		panic(fmt.Sprintf("dpchain: canonical policy: %v", err))
	}
	return dataplane.PipelineConfig{
		Policy:       pol,
		Workers:      workers,
		Packets:      packets,
		CacheEntries: 1024,
		Gen: dataplane.GenConfig{
			Flows:       64,
			FreshEvery:  16,
			MatchFrac:   0.7,
			V6Frac:      0.3,
			VLANFrac:    0.3,
			DeepDstFrac: 0.05,
			Seed:        0x6470636861696e, // "dpchain"
		},
	}
}

// Round generates one shippable round of the dataplane workload: packets
// split across two simulated cores, flow cache warm, canonical spec. It
// is the dataplane counterpart of experiments.WorkloadRound, behind
// `fluct -serve -workload dataplane` and the same flag on -ship.
func Round(packets int) (*trace.Set, error) {
	if packets <= 0 {
		packets = 300
	}
	const workers = 2
	cfg := BaseConfig(workers, packets/workers)
	// Warm the flow caches off-trace: a serve/ship round is a steady-state
	// observation, and the all-miss warmup transient would read as an
	// organic change point to a detector watching the round stream.
	cfg.Warmup = 256
	res, err := dataplane.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := res.VerifyTruth(); err != nil {
		// A verdict mismatch means the compiled matcher disagreed with
		// the oracle — never ship a trace from a broken chain.
		return nil, err
	}
	return res.Set, nil
}
