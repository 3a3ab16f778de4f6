// Package nginxsim models the motivating measurement of §II-C / Fig. 2: an
// NGINX worker serving the default index page (612 bytes) under the Apache
// benchmark with 1 K simultaneous connections, one worker thread on one
// core, averaging 149 µs per request — of which only a fraction is CPU work
// spread across many functions, most taking less than 4 µs each.
//
// The server is the paper's example of a timer-switching architecture; here
// it serves as the function-granularity workload whose per-request,
// per-function times motivate why instrumenting every function is too heavy.
// Markers cost trace.DefaultMarkerUops and PEBS runs with pmu.PEBSConfig's
// defaults.
package nginxsim

import (
	"fmt"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// FuncCost describes one nginx function's per-request cost model: how many
// times the function runs per request and the mean uops per invocation.
// Costs are in uops at the worker's IPC-2 rate (2 GHz ⇒ 1 µs = 4000 uops).
type FuncCost struct {
	Name     string
	Calls    int
	MeanUops uint64
}

// Functions returns the per-request cost table, derived from the shape of
// Fig. 2: one heavyweight event-loop function, a couple of mid-weight
// syscall wrappers, and a long tail of sub-4 µs request-processing helpers.
func Functions() []FuncCost {
	return []FuncCost{
		{"ngx_epoll_process_events", 1, 44000},         // 11.0 µs
		{"ngx_writev", 1, 22400},                       // 5.6 µs
		{"ngx_http_static_handler", 1, 13600},          // 3.4 µs
		{"ngx_http_process_request_headers", 1, 13200}, // 3.3 µs
		{"ngx_event_accept", 1, 12800},                 // 3.2 µs
		{"ngx_recv", 1, 10400},                         // 2.6 µs
		{"ngx_open_cached_file", 1, 8800},              // 2.2 µs
		{"ngx_http_process_request_line", 1, 7600},     // 1.9 µs
		{"ngx_http_header_filter", 1, 7200},            // 1.8 µs
		{"ngx_http_finalize_request", 1, 6800},         // 1.7 µs
		{"ngx_http_output_filter", 1, 5600},            // 1.4 µs
		{"ngx_http_log_handler", 1, 5200},              // 1.3 µs
		{"ngx_http_find_location_config", 1, 4400},     // 1.1 µs
		{"ngx_http_parse_header_line", 8, 450},         // 0.9 µs total
		{"ngx_http_keepalive_handler", 1, 3200},        // 0.8 µs
		{"ngx_palloc", 16, 125},                        // 0.5 µs total
	}
}

// TargetRequestMicros is the measured whole-request average the paper
// reports for its NGINX workload: 44.8 s / 300 K requests = 149 µs.
const TargetRequestMicros = 149.0

// Config parameterizes a run.
type Config struct {
	// Requests is the number of requests to serve (the paper ran 300 K; the
	// default keeps tests quick).
	Requests int
	// Reset enables PEBS sampling on the worker core when > 0.
	Reset uint64
	// Markers enables per-request data-item instrumentation.
	Markers bool

	// seed drives the ±20% cost jitter (0 = a fixed default); only the
	// determinism test varies it.
	seed uint64
}

// FuncStat is the ground-truth per-function aggregate over a run.
type FuncStat struct {
	Name string
	// TotalCycles across the whole run.
	TotalCycles uint64
	// Calls across the whole run.
	Calls uint64
}

// Result bundles a run's outputs.
type Result struct {
	// Set is the hybrid trace.
	Set *trace.Set
	// Truth holds per-function ground-truth totals, in table order.
	Truth []FuncStat
	// Requests served.
	Requests int
	// TotalCycles is the worker's busy+idle makespan.
	TotalCycles uint64
	// BusyCycles is the worker's non-idle portion.
	BusyCycles uint64
	// FreqHz for conversions.
	FreqHz uint64
}

// CyclesToMicros converts cycles to µs.
func (r *Result) CyclesToMicros(cy uint64) float64 {
	return float64(cy) * 1e6 / float64(r.FreqHz)
}

// MeanRequestMicros is the average wall time per request (the 149 µs
// quantity).
func (r *Result) MeanRequestMicros() float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.CyclesToMicros(r.TotalCycles) / float64(r.Requests)
}

// PerRequestMicros returns function f's mean per-request elapsed time.
func (r *Result) PerRequestMicros(f FuncStat) float64 {
	if r.Requests == 0 {
		return 0
	}
	return r.CyclesToMicros(f.TotalCycles) / float64(r.Requests)
}

// xorshift is a tiny deterministic PRNG for cost jitter.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// jitter returns mean ± 20%.
func (x *xorshift) jitter(mean uint64) uint64 {
	if mean == 0 {
		return 0
	}
	span := mean * 2 / 5 // 40% window
	if span == 0 {
		return mean
	}
	return mean - span/2 + x.next()%span
}

// Run serves cfg.Requests requests on a single worker core and returns the
// trace plus ground truth.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("nginxsim: need a positive request count")
	}
	if cfg.seed == 0 {
		cfg.seed = 0x9e3779b97f4a7c15
	}
	m, err := sim.New(sim.Config{Cores: 1})
	if err != nil {
		return nil, err
	}
	costs := Functions()
	fns := make([]*symtab.Fn, len(costs))
	for i, fc := range costs {
		fns[i] = m.Syms.MustRegister(fc.Name, 2048)
	}

	worker := m.Core(0)
	worker.SetRate(1, 2) // IPC 2
	var pebs *pmu.PEBS
	if cfg.Reset > 0 {
		pebs = pmu.NewPEBS(pmu.PEBSConfig{})
		worker.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebs)
	}
	log := trace.NewMarkerLog(1, trace.DefaultMarkerUops)

	res := &Result{
		Requests: cfg.Requests,
		FreqHz:   m.FreqHz(),
		Truth:    make([]FuncStat, len(costs)),
	}
	for i, fc := range costs {
		res.Truth[i].Name = fc.Name
	}

	rng := xorshift(cfg.seed)
	// The busy work below sums to ~43 µs; the remaining ~106 µs per request
	// is network/connection wait inside the event loop, modeled as idle.
	const idleMeanCycles = 212_000 // 106 µs at 2 GHz

	m.MustSpawn(0, func(c *sim.Core) {
		var busy uint64
		for req := 1; req <= cfg.Requests; req++ {
			if cfg.Markers {
				log.Mark(c, uint64(req), trace.ItemBegin)
			}
			t0 := c.Now()
			for i, fc := range costs {
				ft := c.Now()
				c.Call(fns[i], func() {
					for k := 0; k < fc.Calls; k++ {
						c.Exec(rng.jitter(fc.MeanUops))
					}
				})
				res.Truth[i].TotalCycles += c.Now() - ft
				res.Truth[i].Calls += uint64(fc.Calls)
			}
			busy += c.Now() - t0
			if cfg.Markers {
				log.Mark(c, uint64(req), trace.ItemEnd)
			}
			c.Sleep(rng.jitter(idleMeanCycles))
		}
		res.TotalCycles = c.Now()
		res.BusyCycles = busy
	})
	m.Wait()

	var samples []pmu.Sample
	if pebs != nil {
		samples = pebs.Samples()
	}
	res.Set = trace.NewSet(m, log, samples)
	return res, nil
}
