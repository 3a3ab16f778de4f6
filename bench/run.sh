#!/usr/bin/env bash
# Builds fluctbench from this checkout's source and runs it.
#
#   bash bench/run.sh --workload fleet_bulk --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -all            # every workload, untraced then traced
#   bash bench/run.sh -compare a.json b.json
#
# Everything the build leaves behind (go build cache, go tmp files, the
# binary) and everything a run writes (results, trace_event files) stays
# under bench/out/. Run it from the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "fluctbench: run from the root of a checkout (module repro is not here: nothing to build the program from)" >&2
	exit 2
fi

out="$PWD/bench/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod
(cd bench && go build -o "$out/fluctbench" ./fluctbench)
exec "$out/fluctbench" "$@"
