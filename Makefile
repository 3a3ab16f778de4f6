# tier1: the gate every change must pass — build, the full test suite, and
#   the benchmark module's own tests (bench/ builds against this checkout).
# tier2: vet; everything under the race detector; the durable / loopback
#   (cut, resume, admission, grammar) / detect / drain / spool-failure suites
#   raced 20 times over, so a flake cannot hide at 30%; a 10 s fuzz smoke
#   of every target in FUZZ_TARGETS; the full-size scale harness.
# bench: the hot-path micro benchmarks with allocation stats.
# bench-gate: the same benchmarks held to the baselines recorded in
#   EXPERIMENTS.md (see cmd/benchgate for thresholds and pairing).

GO ?= go

FUZZ_TARGETS = internal/trace:FuzzDecode internal/core:FuzzIntegrate \
	internal/wire:FuzzFrameDecode internal/wire:FuzzFrameIter internal/wire:FuzzFleetMerge \
	internal/wire:FuzzVerdictDecode internal/wire:FuzzHandoffDecode internal/spool:FuzzSpoolRecover \
	internal/dataplane:FuzzRuleCompile internal/dataplane:FuzzPacketParse

.PHONY: tier1 tier2 bench bench-gate

tier1:
	$(GO) build ./... && $(GO) test ./...
	cd bench && $(GO) test ./...

tier2:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -race -count 20 -run 'TestStaleEpoch|TestCrash|TestLoopback|TestDetect|TestDrain|TestCheckpoint|TestLostAck|TestAdmission|TestSpoolFailure|TestAppendSurvives' ./internal/collector ./internal/agg ./internal/ship ./internal/spool ./internal/experiments
	for t in $(FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime=10s ./$${t%%:*} || exit 1; done
	$(GO) test -tags scale -count 1 -run '^TestScaleHarness$$' -timeout 900s ./internal/agg

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMicro|BenchmarkInstrumentedIntegrate|BenchmarkParallelIntegrate|BenchmarkSymtabResolveCached' -benchmem -count 1 .
	$(GO) test -run '^$$' -bench 'BenchmarkWireEncodeDecode' -benchmem -count 1 ./internal/wire
	$(GO) test -run '^$$' -bench 'BenchmarkCollectorIngest' -benchmem -count 1 ./internal/collector
	$(GO) test -run '^$$' -bench 'BenchmarkDetectUpdate' -benchmem -count 1 ./internal/detect
	$(GO) test -run '^$$' -bench 'BenchmarkHandoffTransfer' -benchmem -count 1 ./internal/collector
	$(GO) test -run '^$$' -bench 'BenchmarkAggregatorMerge' -benchmem -count 1 ./internal/agg
	$(GO) test -run '^$$' -bench 'BenchmarkDataplane' -benchmem -count 1 ./internal/dataplane

bench-gate:
	$(GO) run ./cmd/benchgate
	$(GO) run ./cmd/benchgate -bench BenchmarkInstrumentedIntegrate -against BenchmarkMicroIntegrate -threshold 0.03 -count 5
	$(GO) run ./cmd/benchgate -bench BenchmarkWireEncodeDecode -pkg ./internal/wire -threshold 0.30 -allocs 0
	$(GO) run ./cmd/benchgate -bench BenchmarkCollectorIngest -pkg ./internal/collector -threshold 0.50 -count 3
	$(GO) run ./cmd/benchgate -bench BenchmarkSpoolAppend -pkg ./internal/spool -threshold 0.30 -count 5
	$(GO) run ./cmd/benchgate -bench BenchmarkDetectUpdate -pkg ./internal/detect -threshold 0.30 -allocs 0
	$(GO) run ./cmd/benchgate -bench BenchmarkCollectorIngestDetect -against BenchmarkCollectorIngest -pkg ./internal/collector -threshold 0.03 -count 5
	$(GO) run ./cmd/benchgate -bench BenchmarkAggregatorMerge -pkg ./internal/agg -threshold 0.50 -count 3
	$(GO) run ./cmd/benchgate -bench BenchmarkHandoffTransfer -pkg ./internal/collector -threshold 0.50 -count 3
	$(GO) run ./cmd/benchgate -bench BenchmarkDataplaneClassify -pkg ./internal/dataplane -threshold 0.30 -count 3 -allocs 0
	$(GO) run ./cmd/benchgate -bench BenchmarkDataplanePipeline -pkg ./internal/dataplane -threshold 0.30 -count 3
