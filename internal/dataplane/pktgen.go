package dataplane

import (
	"repro/internal/hashx"
	"repro/internal/lpm"
)

// GenConfig parameterizes the deterministic packet generator. All
// fractions are in [0,1]; the stream is a pure function of the config
// (notably Seed), so two generators with equal configs emit identical
// streams — the determinism the pipeline's reproducibility rests on.
type GenConfig struct {
	// Rules aims a MatchFrac share of flows at a random rule (synthesizing
	// header fields inside the rule's ranges); the rest are random traffic
	// that may or may not match.
	Rules []Rule
	// Routes seeds the deep/shallow destination split: "deep" v4
	// destinations are covered by routes longer than the DIR-24-8 first
	// level (two probes), deep v6 by /96+ prefixes (long trie walks).
	Routes RouteConfig
	// Flows sizes the flow pool packets are drawn from; <= 0 disables
	// pooling (every packet a fresh flow, nothing for a cache to hit).
	Flows int
	// FreshEvery replaces a random pool slot with a new flow every N-th
	// packet (0 = pool is fixed after warm-up).
	FreshEvery int
	// MatchFrac, V6Frac, VLANFrac bias the header mix.
	MatchFrac float64
	V6Frac    float64
	VLANFrac  float64
	// DeepDstFrac steers this share of eligible flows to deep routes;
	// adjustable mid-run (SetDeepDstFrac) for the depth-skew scenario.
	DeepDstFrac float64
	// Seed drives the splitmix64 stream (0 gets a fixed default).
	Seed uint64
}

// Generator emits a deterministic packet stream.
type Generator struct {
	cfg   GenConfig
	rng   hashx.SplitMix64
	pool  []Packet
	count uint64

	deepV4 []lpm.Route
	deepV6 []lpm.Route6
	rules4 []int // indices of v4 rules, v6 rules
	rules6 []int
}

// NewGenerator builds a generator; the pool (if any) is filled eagerly
// so the first Next already draws from it.
func NewGenerator(cfg GenConfig) *Generator {
	if cfg.Seed == 0 {
		cfg.Seed = 0x64706c616e65 // "dplane"
	}
	g := &Generator{cfg: cfg, rng: hashx.SplitMix64{State: cfg.Seed}}
	for _, r := range cfg.Routes.V4 {
		if r.Len > lpm.FirstLevelBits {
			g.deepV4 = append(g.deepV4, r)
		}
	}
	for _, r := range cfg.Routes.V6 {
		if r.Len >= 96 {
			g.deepV6 = append(g.deepV6, r)
		}
	}
	for i, r := range cfg.Rules {
		if r.V6 {
			g.rules6 = append(g.rules6, i)
		} else {
			g.rules4 = append(g.rules4, i)
		}
	}
	for i := 0; i < cfg.Flows; i++ {
		g.pool = append(g.pool, g.newFlow())
	}
	return g
}

// SetDeepDstFrac retargets the deep-destination share mid-stream (the
// depth-skew onset). Pooled flows keep their old destinations; skew
// scenarios run unpooled.
func (g *Generator) SetDeepDstFrac(f float64) { g.cfg.DeepDstFrac = f }

// roll returns true with probability frac.
func (g *Generator) roll(frac float64) bool {
	if frac <= 0 {
		return false
	}
	return g.rng.Float64() < frac
}

// rangePick returns a uniform value in [lo,hi].
func (g *Generator) rangePick(lo, hi uint16) uint16 {
	return lo + uint16(g.rng.Next()%uint64(int(hi)-int(lo)+1))
}

// Next returns the stream's next packet (ID zero — the pipeline stamps
// per-worker IDs).
func (g *Generator) Next() Packet {
	g.count++
	fresh := len(g.pool) == 0 ||
		(g.cfg.FreshEvery > 0 && g.count%uint64(g.cfg.FreshEvery) == 0)
	if !fresh {
		return g.pool[g.rng.Next()%uint64(len(g.pool))]
	}
	p := g.newFlow()
	if len(g.pool) > 0 {
		g.pool[g.rng.Next()%uint64(len(g.pool))] = p
	}
	return p
}

// newFlow synthesizes one flow's headers.
func (g *Generator) newFlow() Packet {
	var p Packet
	p.V6 = g.roll(g.cfg.V6Frac)

	aimed := false
	var aimRule Rule
	if g.roll(g.cfg.MatchFrac) {
		fam := g.rules4
		if p.V6 {
			fam = g.rules6
		}
		if len(fam) > 0 {
			aimed = true
			aimRule = g.cfg.Rules[fam[g.rng.Next()%uint64(len(fam))]]
		}
	}

	if aimed {
		p.Proto = uint8(g.rangePick(uint16(aimRule.ProtoLo), uint16(aimRule.ProtoHi)))
		switch {
		case aimRule.VLANLo > 0:
			p.VLAN = g.rangePick(aimRule.VLANLo, aimRule.VLANHi)
		case aimRule.VLANHi > 0 && g.roll(g.cfg.VLANFrac):
			p.VLAN = g.rangePick(1, aimRule.VLANHi)
		}
		p.Src = g.addrUnder(aimRule.SrcAddr, effectiveBits(p.V6, aimRule.SrcBits), p.V6)
		p.Dst = g.addrUnder(aimRule.DstAddr, effectiveBits(p.V6, aimRule.DstBits), p.V6)
		if hasPorts(p.Proto) {
			p.SrcPort = g.rangePick(aimRule.SrcPortLo, aimRule.SrcPortHi)
			p.DstPort = g.rangePick(aimRule.DstPortLo, aimRule.DstPortHi)
		}
	} else {
		switch g.rng.Next() % 3 {
		case 0:
			p.Proto = ProtoTCP
		case 1:
			p.Proto = ProtoUDP
		default:
			p.Proto = ProtoICMP
		}
		if g.roll(g.cfg.VLANFrac) {
			p.VLAN = g.rangePick(1, MaxVLAN-1)
		}
		p.Src = g.randomAddr(p.V6)
		p.Dst = g.randomAddr(p.V6)
		if hasPorts(p.Proto) {
			p.SrcPort = uint16(g.rng.Next())
			p.DstPort = uint16(g.rng.Next())
		}
	}

	// Deep-destination steering: only flows whose rule aim leaves the
	// destination free (dst-agnostic rule or unaimed traffic), so the
	// depth-skew scenario can move route cost without moving ACL cost.
	if (!aimed || aimRule.DstBits == 0) && g.roll(g.cfg.DeepDstFrac) {
		if !p.V6 && len(g.deepV4) > 0 {
			r := g.deepV4[g.rng.Next()%uint64(len(g.deepV4))]
			var mapped [16]byte
			mapped[10], mapped[11] = 0xff, 0xff
			a := g.v4Under(r.Prefix, r.Len)
			mapped[12], mapped[13], mapped[14], mapped[15] = byte(a>>24), byte(a>>16), byte(a>>8), byte(a)
			p.Dst = mapped
		} else if p.V6 && len(g.deepV6) > 0 {
			r := g.deepV6[g.rng.Next()%uint64(len(g.deepV6))]
			p.Dst = g.addrUnder(r.Prefix, r.Len, true)
		}
	}
	return p
}

// addrUnder returns a uniform address under prefix/bits in the 16-byte
// layout (v4 results stay v4-mapped).
func (g *Generator) addrUnder(prefix [16]byte, bits int, v6 bool) [16]byte {
	out := prefix
	lo := 0
	if !v6 {
		// Never randomize the mapping bytes of a v4 address.
		out[10], out[11] = 0xff, 0xff
		lo = 12
		if bits < 96 {
			bits = 96
		}
	}
	for i := lo; i < 16; i++ {
		rem := bits - 8*i
		switch {
		case rem >= 8:
		case rem <= 0:
			out[i] = byte(g.rng.Next())
		default:
			mask := byte(0xff) << (8 - rem)
			out[i] = out[i]&mask | byte(g.rng.Next())&^mask
		}
	}
	return out
}

// v4Under returns a uniform v4 address under prefix/len.
func (g *Generator) v4Under(prefix uint32, length int) uint32 {
	if length >= 32 {
		return prefix
	}
	return prefix | uint32(g.rng.Next())&(1<<(32-length)-1)
}

// randomAddr draws from a clustered space (10.0.0.0/14 or a few low
// bytes of 2001:db8::/32) so random traffic still collides with typical
// rule and route tables.
func (g *Generator) randomAddr(v6 bool) [16]byte {
	if !v6 {
		var out [16]byte
		out[10], out[11] = 0xff, 0xff
		out[12] = 10
		out[13] = byte(g.rng.Next() % 4)
		out[14] = byte(g.rng.Next())
		out[15] = byte(g.rng.Next())
		return out
	}
	var out [16]byte
	out[0], out[1] = 0x20, 0x01
	out[2], out[3] = 0x0d, 0xb8
	// Third group 1..3 ("2001:db8:1::" style): collides with typical /48
	// routes and rules, and never 0 — the all-zero middle path is where
	// deep /96+ route chains live, and random traffic walking them by
	// accident would smear route cost across the whole run.
	out[5] = byte(1 + g.rng.Next()%3)
	for i := 12; i < 16; i++ {
		out[i] = byte(g.rng.Next())
	}
	return out
}
