# Build/verify entry points. `make check` is the full pre-commit gate.

GO ?= go

.PHONY: all build test race vet fmt lint-metrics check verify fallback e2e-test examples conformance chaos chaos-triple bench bench-obs bench-gate bench-baseline race-obs clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency (plus everything
# else — the repo is small enough).
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint-metrics checks the emitted metric surface against the committed
# catalog (docs/METRICS.json): every metric name is a string literal at
# the call that emits it (a non-literal name or label key fails), every
# name + label key set in the code must be declared, every declared
# entry must still be emitted, and every label key must be in the
# bounded taxonomy. After changing instrumentation, regenerate with
# `go run ./cmd/metriclint -write`.
lint-metrics:
	$(GO) run ./cmd/metriclint

check: vet fmt lint-metrics test race

# verify is the CI gate (see .github/workflows/verify.yml): the same
# stages as check plus the registry conformance matrix, named separately
# so CI and local habits can diverge later without repurposing either.
verify: vet fmt lint-metrics test race conformance fallback e2e-test examples

# fallback runs the GF(2^8) table kernels as the only path, on any runner:
# GOARCH=386 assembles no gf_amd64.s, and its test binaries run natively
# on an amd64 host. arm64 (also table-only) is built and vetted, not run.
fallback:
	GOARCH=386 $(GO) test -count=1 ./internal/gf ./internal/rs
	GOARCH=arm64 $(GO) vet ./internal/gf ./internal/rs

# e2e-test vets and runs the end-to-end benchmark's own tests.
# cmd/e2ebench is a separate module (it reaches the repository's packages
# through a replace directive), so the root `go vet ./...` and
# `go test ./...` never compile it; this target catches a change to the
# shard API, the registry, the rs engine's span names or obs.Observable
# that would break the benchmark.
e2e-test:
	cd cmd/e2ebench && $(GO) vet ./... && $(GO) test ./...

# examples runs every program under examples/. Each one log.Fatal's when
# its bytes or parities come out wrong, so a non-zero exit fails the
# target; nothing else runs them (they have no tests).
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# conformance runs the registry-driven matrices explicitly and verbosely:
# the codetest battery, the full shard round-trip for every registered
# code at every advertised (k, p) shape, the per-code pins of repair's
# and decode's bytes read (each survivor exactly once), and the decodes
# that read ahead (every code; errors in stripe order; seeded replays).
# Redundant with `test` except for -count=1 — CI wants these exercised
# even when cached — and for the legible per-code subtest listing when
# something breaks.
conformance:
	$(GO) test -count=1 -run 'TestConformanceMatrix|TestCodeMatrixRoundTrip|TestRepairReadsEachSurvivorOnce|TestDecodeReadsEachSurvivorOnce|TestReadAhead|TestSeededScheduleReplays' \
		./internal/codes ./internal/shard

# chaos is the extended fault-injection soak (~30s): thousands of seeded
# fault schedules through encode/decode/repair, then the shard-outage
# soak: 1 to m+1 shard paths down for every registered code, where
# schedules with at most m outages and no other fault MUST decode
# byte-identically and repair to a clean verify, and everything else
# must end byte-identical or in a typed error. Every failure reproduces
# from the seed printed in the test log.
chaos:
	CHAOS_SCHEDULES=3000 CHAOS_OUTAGE_SCHEDULES=500 $(GO) test -count=1 \
		-run 'TestChaosSoak|TestChaosOutageSoak' -v ./internal/shard/

# chaos-triple is the triple-fault soak: seeded schedules mixing shard
# outages with disk-level shard deletions and silent corruption — at
# most three failures per schedule, the rs3 parity budget — so every
# decode must be byte-identical and every repair must heal the set back
# to a clean verify. Reproduces from the logged seed.
chaos-triple:
	CHAOS_TRIPLE_SCHEDULES=600 $(GO) test -count=1 -run TestChaosTripleSoak -v ./internal/shard/

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# Emit artifacts/BENCH_obs.json: the metric snapshot of a deterministic
# instrumented workload (XOR-per-bit rates, span accounting).
# -count=1 defeats the test cache: the artifact is written by TestMain,
# which does not run when the result is served from cache.
bench-obs:
	BENCH_OBS_JSON=artifacts/BENCH_obs.json $(GO) test -count=1 -run TestObservedWorkloadDeterministic .

# Perf-regression gate: measure the core coding hot paths and fail on any
# exact-XOR-count change or a >15% calibrated throughput regression
# against the checked-in baseline. The single-column correction bench
# carries its own tighter band in the baseline (tol_ns_frac).
bench-gate:
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_core.json

# Regenerate the bench-gate baseline (run on a quiet machine, then commit).
bench-baseline:
	$(GO) run ./cmd/benchgate -baseline artifacts/BENCH_core.json -write

# Race-detector pass focused on the observability surfaces: concurrent
# flight-recorder scrapes, event-log writes, traced degraded decodes,
# per-attempt deadlines, the shard-outage soak, and the decodes whose
# reader runs a batch ahead of the caller.
race-obs:
	$(GO) test -race -count=1 -run 'Trace|Flight|LogJSON|Concurrent|EventLog|Outage|Timeout|ReadAhead|SeededSchedule' \
		./internal/obs ./internal/shard ./cmd/raidcli ./internal/store

clean:
	$(GO) clean ./...
