# tier1: the gate every change must pass — build, the full test suite, and
#   the benchmark module's own tests (bench/ builds against this checkout).
# tier2: gofmt over every tracked Go file (git ls-files, so the parent tree
#   bench-ab unpacks under bench/out is not walked); vet; everything under
#   the race detector; the durable / loopback (cut, resume, admission,
#   grammar) / receive-loop (ordering, per-tier conformance) / slow-apply
#   backpressure / detect / drain / spool-failure / serve (shipper, listener
#   and collector in one process) / checkpoint-restore / concurrent ACL
#   classification (one walk, per-caller scratch) / shared dataplane
#   policy (two rounds on one compiled Policy) / released machine (cache
#   lines handed from one round to the next, two rounds at once) / recycled
#   PEBS drain buffers (a finished round's samples untouched by the next) /
#   reserved marker log suites and the
#   integration equivalence suites (parallel, stream, tie, degraded, the
#   per-core merge in place, Integrate's one item array, the feed walk, concurrent uplink encodes, the
#   aggregator's check-only delivery and its reads walking payloads beside merges,
#   the collector's fleet reads beside ingest)
#   raced 20 times over in shuffled order, so a flake or an order dependence cannot
#   hide at 30%; a 10 s fuzz smoke of every
#   target in FUZZ_TARGETS (FuzzIntegrate includes the differential against
#   the reference interval pass); the full-size scale harness.
# bench: the hot-path micro benchmarks with allocation stats; both front
#   ends of the one ACL trie-set walk (dataplane's 40-byte matcher, acl's
#   12-byte Table III classifier) are timed side by side.
# loc: non-test Go lines per package directory and in total, bench/ and
#   testdata/ excluded — the figure a change that shrinks the code reports.
# bench-ab: the paired protocol every [perf_opt] change reports —
#   make bench-ab PARENT=<rev> [W=fleet_bulk] [N=3] [SEED=1]
#   unpacks the parent under bench/out/parent, builds both trees with their
#   own bench/run.sh, runs N alternating parent/change pairs (order flipped
#   each pair: run-to-run drift on a shared box swamps absolute numbers)
#   into bench/out/ab/{a,b}<i>.json and ends with fluctbench -compare at
#   the medians. W may list several workloads; -compare counts a workload
#   the files lack as a finding, so short of all five it exits non-zero
#   after the table.

GO ?= go

FUZZ_TARGETS = internal/trace:FuzzDecode internal/trace:FuzzDecodeStream internal/core:FuzzIntegrate \
	internal/wire:FuzzFrameDecode internal/wire:FuzzFrameIter internal/wire:FuzzFleetMerge \
	internal/wire:FuzzVerdictDecode internal/wire:FuzzHandoffDecode internal/spool:FuzzSpoolRecover \
	internal/dataplane:FuzzRuleCompile internal/dataplane:FuzzPacketParse \
	internal/collector:FuzzCollectorRestore internal/collector:FuzzHandoffImport \
	internal/agg:FuzzAggregatorRestore internal/detect:FuzzDetectorRestore

.PHONY: tier1 tier2 bench bench-ab loc

tier1:
	$(GO) build ./... && $(GO) test ./...
	cd bench && $(GO) test ./...

tier2:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count 20 -shuffle=on -run 'TestStaleEpoch|TestCrash|TestLoopback|TestDetect|TestDrain|TestCheckpoint|TestLostAck|TestAdmission|TestSpoolFailure|TestAppendSurvives|TestShipSet|TestRetired|TestGapScan|TestFrameReader|TestWriteFrame|TestReceive|TestAggregatorAppliesInNumberOrder|TestSlowApply|TestServe|TestAggregatorCheckpoint|TestRestore|TestAggregatorRestart|TestRestoredItems|TestCollectorCheckpoint|TestImport|TestCaptureRegs|TestIterBatchReuse|TestSnapshot|TestConcurrentClassification|TestPipelineDeterminism|TestPolicySharedAcrossRounds|TestFeed|TestUplinkConcurrentSummaries|TestAggregatorHandAllocs|TestAggregatorFleetDuringMerges|TestCollectorFleetDuringIngest|TestMarkerLog|TestReleased|TestRunRelease|TestSampleBuffers|TestCloseIsNotALostLink' ./internal/collector ./internal/agg ./internal/durable ./internal/ship ./internal/spool ./internal/experiments ./internal/trace ./internal/pmu ./internal/wire ./internal/detect ./internal/acl ./internal/dataplane ./internal/cache ./internal/sim
	$(GO) test -race -count 20 -shuffle=on -run 'TestParallelIntegrate|TestQuickStream|TestIntegrateTies|TestDegraded|TestMergeItems|TestIntegrateAllocsFlat' ./internal/core
	for t in $(FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime=10s ./$${t%%:*} || exit 1; done
	$(GO) test -tags scale -count 1 -run '^TestScaleHarness$$' -timeout 900s ./internal/agg

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMicro|BenchmarkInstrumentedIntegrate|BenchmarkParallelIntegrate|BenchmarkSymtabResolveCached' -benchmem -count 1 .
	$(GO) test -run '^$$' -bench 'BenchmarkWireEncodeDecode|BenchmarkFleetSummaryDecode' -benchmem -count 1 ./internal/wire
	$(GO) test -run '^$$' -bench 'BenchmarkCollectorIngest|BenchmarkCollectorCheckpoint|BenchmarkCollectorFleet' -benchmem -count 1 ./internal/collector
	$(GO) test -run '^$$' -bench 'BenchmarkShipSet' -benchmem -count 1 ./internal/ship
	$(GO) test -run '^$$' -bench 'BenchmarkSpoolAppend' -benchmem -count 1 ./internal/spool
	$(GO) test -run '^$$' -bench 'BenchmarkDetectUpdate' -benchmem -count 1 ./internal/detect
	$(GO) test -run '^$$' -bench 'BenchmarkHandoffTransfer' -benchmem -count 1 ./internal/collector
	$(GO) test -run '^$$' -bench 'BenchmarkAggregatorHand|BenchmarkAggregatorFleet|BenchmarkAggregatorHealth|BenchmarkAggregatorCheckpoint' -benchmem -count 1 ./internal/agg
	$(GO) test -run '^$$' -bench 'BenchmarkDataplane' -benchmem -count 1 ./internal/dataplane
	$(GO) test -run '^$$' -bench 'BenchmarkDPChainRound|BenchmarkNewPolicy|BenchmarkDPChainOffline' -benchmem -count 1 ./internal/workloads/dpchain
	$(GO) test -run '^$$' -bench 'BenchmarkClassifyPaperType' -benchmem -count 1 ./internal/acl

loc:
	@git ls-files --cached --others --exclude-standard '*.go' ':!*_test.go' ':!bench' ':!*/testdata/*' | \
		xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
			n[d] += $$1; t += $$1 } END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; \
			close("sort -k2"); printf "%6d  total\n", t }'

W ?= fleet_bulk
N ?= 3
SEED ?= 1
AB = $(CURDIR)/bench/out/ab

bench-ab:
	@test -n "$(PARENT)" || { echo "usage: make bench-ab PARENT=<rev> [W=fleet_bulk] [N=3] [SEED=1]" >&2; exit 2; }
	rm -rf $(AB) bench/out/parent && mkdir -p $(AB) bench/out/parent
	git archive $(PARENT) | tar -x -C bench/out/parent
	cd bench/out/parent && bash bench/run.sh -spec >/dev/null
	bash bench/run.sh -spec >/dev/null
	@set -e; \
	run() { \
		for w in $(W); do \
			echo "== $$2: $$w"; \
			(cd $$1 && bash bench/run.sh --workload $$w --seed $(SEED) --trace 0 --out $(AB)/$$2) >$(AB)/$$2.$$w.log; \
			tail -n 1 $(AB)/$$2.$$w.log; \
		done; \
		mv $(AB)/$$2/BENCH_*.json $(AB)/$$2.json; \
	}; \
	a=; b=; \
	for i in $$(seq $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then run bench/out/parent a$$i; run . b$$i; \
		else run . b$$i; run bench/out/parent a$$i; fi; \
		a=$$a,$(AB)/a$$i.json; b=$$b,$(AB)/b$$i.json; \
	done; \
	bash bench/run.sh -compare $${a#,} $${b#,}
