package experiments

import (
	"net"

	"repro/internal/collector"
)

// StartCollector starts a collector on a fresh loopback port and accepts
// shippers on it in the background until the returned listener is
// closed. It is the one collector launcher behind `fluct -serve` — which
// is a one-source fluctd in a single process: StartCollector, ShipRounds
// against the listener, and the collector's Handler on the HTTP address —
// and behind the network and crash sweeps.
func StartCollector(cfg collector.Config) (*collector.Collector, net.Listener, error) {
	coll, err := collector.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go coll.Serve(l)
	return coll, l, nil
}
