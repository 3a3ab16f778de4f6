package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as scalars, histograms as
// summaries with p50/p95/p99 quantile series plus _sum and _count.
// Output is sorted by metric name, so scrapes are deterministic and
// golden-testable. A nil registry writes nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	for _, p := range r.Snapshot() {
		var err error
		switch p.Kind {
		case "summary":
			_, err = fmt.Fprintf(w,
				"# TYPE %s summary\n%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.95\"} %s\n%s{quantile=\"0.99\"} %s\n%s_sum %s\n%s_count %d\n",
				p.Name,
				p.Name, promValue(p.P50),
				p.Name, promValue(p.P95),
				p.Name, promValue(p.P99),
				p.Name, promValue(p.Sum),
				p.Name, p.Count)
		default:
			_, err = fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", p.Name, p.Kind, p.Name, promValue(p.Value))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Health is the /healthz payload. It is deliberately small: a boolean
// verdict, a one-line human explanation, and optional numeric detail —
// enough for a load balancer and a first-responder alike.
type Health struct {
	OK     bool               `json:"ok"`
	Status string             `json:"status"`
	Detail string             `json:"detail,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// HandlerOptions configures Handler.
type HandlerOptions struct {
	// Registry backs /metrics and /debug/vars; nil falls back to the
	// default registry (resolved per request, so a registry installed
	// after the handler is built is still picked up).
	Registry *Registry
	// Health feeds /healthz; nil reports a static healthy response.
	Health func() Health
}

// expvarOnce guards the process-global expvar publication (expvar panics
// on duplicate names, and tests build multiple handlers).
var expvarOnce sync.Once

// Handler returns the self-telemetry HTTP surface:
//
//	/metrics          Prometheus text exposition of the registry
//	/debug/vars       expvar JSON (registry under the "fluct" key)
//	/debug/pprof/*    the standard Go profiling endpoints
//	/healthz          JSON health verdict, 503 when degraded
//
// Mount it on any listener. Its one caller is collector.ViewHandler, which
// adds /fleet and /verdicts and is what both fluctd tiers and `fluct -serve`
// (a one-source fluctd) serve.
func Handler(opts HandlerOptions) http.Handler {
	reg := func() *Registry {
		if opts.Registry != nil {
			return opts.Registry
		}
		return Default()
	}
	expvarOnce.Do(func() {
		expvar.Publish("fluct", expvar.Func(func() any {
			// The default registry, not the captured one: expvar is
			// process-global state and must track the live default.
			return Default().Vars()
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, reg()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		h := Health{OK: true, Status: "healthy"}
		if opts.Health != nil {
			h = opts.Health()
		}
		w.Header().Set("Content-Type", "application/json")
		if !h.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(h)
	})
	return mux
}
