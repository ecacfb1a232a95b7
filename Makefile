# Repeatable gates for the repo. `make tier1` is the seed gate (build +
# tests); `make race` runs the full suite under the race detector — the
# fault-injection layer, the popdb/workflow concurrency paths and the
# scenario service's queue/cache must stay race-clean. `make vet` and
# `make fmt-check` are static gates. `make check` runs all of them.
# tier1 also vets the perfbench module (its own go.mod over this one), so a
# serving-API change that breaks the benchmark fails here rather than at
# the next benchmark run.

GO ?= go

.PHONY: tier1 race vet fmt-check fuzz check bench-json loadtest

tier1:
	$(GO) build ./...
	$(GO) vet ./internal/obs
	$(GO) test ./...
	$(GO) test -race ./internal/mcmc ./internal/calib ./internal/obs
	$(GO) test -race ./internal/castore
	$(GO) test -race ./internal/fidelity
	$(GO) test -race ./internal/scenario ./cmd/loadgen
	$(GO) test -race -run 'Snapshot|WhatIf|Shard|Determinism' ./internal/epihiper ./internal/core
	cd perfbench && GOFLAGS=-mod=mod $(GO) vet ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails when any file needs `gofmt -w`, listing the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Machine-readable record of the performance benchmarks: the Fig 7
# runtime-vs-size sweep, the steady-state transmission-kernel pass, the
# calibration stack (dense vs Woodbury likelihood, serial vs multi-chain
# Sample at a fixed draw budget), the observability overhead pair
# (replicate fan-out with tracing off vs on — budget ≤3% — plus the obs
# primitive costs), and the what-if fan-out sweep (N=8 scenarios unshared
# vs branched from shared-prefix snapshots, cold and warm cache, with the
# speedup_x acceptance metric), the fidelity ladder (emulator hit vs
# corrected metapop vs escalate-to-ABM, with speedup_x = ABM over emulator
# ns/op — the serving tier's ≥100× acceptance metric), and the shard
# scaling curve (full kernel at 1/2/4/8 shards over the golden network),
# with -benchmem so the zero-allocation claims are part of the artifact.
# The serving-tier observability overhead proof (paired off/on stacks
# serving alternating real-pipeline requests; overhead-pct budget ≤3) rides
# along. CI uploads the file, under the same name, as a non-gating
# artifact.
BENCH_JSON ?= BENCH.json
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFig7TopRuntimeVsSize$$' -benchmem . > bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkWhatIfFanout$$' -benchmem . >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTransmissionPhase$$' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkLogLik|BenchmarkSample' -benchmem ./internal/calib >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkReplicatesObs' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCounterInc|BenchmarkHistogramObserve|BenchmarkSpanStartEnd|BenchmarkWritePrometheus' -benchmem ./internal/obs >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkFidelityLadder' -benchmem ./internal/fidelity >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchmem ./internal/epihiper >> bench_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkServingObsOverhead$$' -benchmem ./internal/scenario >> bench_raw.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) < bench_raw.txt
	@rm -f bench_raw.txt

# Deterministic short load profile: the 64-client closed-loop load proof
# against one scenario service over HTTP. Non-gating in CI, cheap enough to
# run locally on demand.
loadtest:
	$(GO) test -race -run 'TestLoadProof|TestRunLoadgenFixedSpecHitsCache' -v -count=1 ./cmd/loadgen

# Short exploratory fuzz pass over the scheduler and snapshot-codec
# targets (the seed corpus always runs as part of tier1).
fuzz:
	$(GO) test ./internal/sched -fuzz FuzzRelaxedColoring -fuzztime 10s
	$(GO) test ./internal/sched -fuzz FuzzScheduleRoundTrip -fuzztime 10s
	$(GO) test ./internal/epihiper -fuzz FuzzSnapshotRoundTrip -fuzztime 10s
	$(GO) test ./internal/fidelity -fuzz FuzzFidelityRoute -fuzztime 10s

check: fmt-check vet tier1 race
