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
# the call that emits it (a non-literal name fails), every name and type
# in the code must be declared, and every declared entry must still be
# emitted. After changing instrumentation, regenerate with
# `go run ./cmd/metriclint -write`.
lint-metrics:
	$(GO) run ./cmd/metriclint

check: vet fmt lint-metrics test race

# verify is the CI gate (see .github/workflows/verify.yml): the same
# stages as check plus the registry conformance matrix, named separately
# so CI and local habits can diverge later without repurposing either.
verify: vet fmt lint-metrics test race conformance fallback e2e-test examples

# fallback runs the portable paths as the only path, on any runner: the
# GF(2^8) table kernels, hash/crc32 under every shard checksum, and
# crypto/subtle under every element XOR. GOARCH=386 assembles no amd64
# kernel, and its test binaries run natively on an amd64 host. arm64
# (also portable-only) is built and vetted, not run. The first lines log
# which CRC and XOR paths this runner's CPU takes: the kernel subtests of
# TestUpdate and TestXorAllLengths pass, or skip with the missing feature.
fallback:
	$(GO) test -count=1 -v -run 'TestUpdate$$' ./internal/crc
	$(GO) test -count=1 -v -run 'TestXorAllLengths$$' ./internal/xorblk
	GOARCH=386 $(GO) test -count=1 ./internal/gf ./internal/rs ./internal/crc ./internal/shard ./internal/xorblk ./internal/liberation
	GOARCH=arm64 $(GO) vet ./internal/gf ./internal/rs ./internal/crc ./internal/xorblk

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

# conformance runs the registry-driven matrices on their own: the
# codetest battery, the full shard round-trip for every registered code
# at every advertised (k, p) shape, the per-code pins of repair's and
# decode's bytes read (each survivor exactly once), the strip rule for
# every code (failing strips in up to m shards beside a lost one, or in
# m+1 shards, through Verify, decode and repair), and the decodes that
# read ahead (every code; errors in stripe order; seeded replays). It is
# redundant with `test` except for -count=1: CI wants these exercised
# even when cached. A passing run prints one line per package; a failing
# one names each failing per-code subtest.
conformance:
	$(GO) test -count=1 -run 'TestConformanceMatrix|TestCodeMatrixRoundTrip|TestRepairReadsEachSurvivorOnce|TestDecodeReadsEachSurvivorOnce|TestFailingStripsEveryCode|TestReadAhead|TestSeededScheduleReplays' \
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
# registry and span updates, event-log writes, traced decodes, repairs
# and verifies, the shard-outage soak, and the decodes whose reader runs
# a batch ahead of the caller.
race-obs:
	$(GO) test -race -count=1 -run 'Trace|LogJSON|Concurrent|EventLog|Outage|ReadAhead|SeededSchedule' \
		./internal/obs ./internal/shard ./cmd/raidcli

clean:
	$(GO) clean ./...
