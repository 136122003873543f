# wadeploy — build, test and reproduce the paper's evaluation.

GO ?= go

# Perf record written by `make bench`; bump the suffix per PR so the
# trajectory (BENCH_PR1.json, BENCH_PR2.json, ...) stays comparable.
BENCH_OUT ?= BENCH_PR10.json

# Baseline record the bench-check gate compares against.
BENCH_BASELINE ?= BENCH_PR9.json
# Maximum fractional regression per promoted metric (0.3 = 30%; CI runners
# are noisy, so the gate only catches real cliffs).
BENCH_TOLERANCE ?= 0.3

.PHONY: all verify build vet test race bench bench-smoke bench-check perfbench-check determinism profile repro repro-quick examples clean

all: verify

# Tier-1 verification: compile, static checks, full test suite.
verify: build vet test

build:
	$(GO) build ./...

# Static checks: go vet, and gofmt -l must list no file. .bench_build/ is
# skipped: it holds perfbench/run.sh's Go caches, not sources of this repo.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l $$(find . -name '*.go' -not -path './.bench_build/*'))"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Race-detector pass over every package: the parallel experiment scheduler
# overlaps entire simulation runs, so this must stay clean.
race:
	$(GO) test -race ./...

# Run the engine microbenchmarks plus one pass of the paper benchmarks, and
# record them (with sequential-vs-parallel `wadeploy all` wall-clock) as
# machine-readable JSON for cross-PR comparison.
bench:
	( $(GO) test -bench=BenchmarkEngine -benchmem -run '^$$' ./internal/sim && \
	  $(GO) test -bench=BenchmarkSqldb -benchmem -run '^$$' ./internal/sqldb && \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' . && \
	  $(GO) test -bench='SubstrateSimEventThroughput|WorkloadScaleSessions|TraceOverhead' -benchmem -run '^$$' . ) \
	| $(GO) run ./cmd/benchjson -time-wadeploy -o $(BENCH_OUT)

# One-iteration pass over every benchmark family: catches benchmarks that
# no longer compile or crash, without paying measurement time. CI runs this.
# The root `-bench=.` pass includes the engine-v2 throughput benchmarks
# (SubstrateSimEventThroughput, WorkloadScaleSessions).
bench-smoke:
	$(GO) test -bench=BenchmarkSqldb -benchtime=1x -run '^$$' ./internal/sqldb
	$(GO) test -bench=BenchmarkEngine -benchtime=1x -run '^$$' ./internal/sim
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./internal/trace
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The benchmark in perfbench/ is its own module, so `go build ./...` and
# `go test ./...` at the root do not see it. Vet and test it here: an API
# change under internal/ must not break the benchmark or move its goldens.
# The tests run the full-length golden checks (seeds 1 and 7).
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Bench-regression gate: run the measured benchmarks into a fresh record and
# compare its promoted metrics against the checked-in baseline. Throughput
# must not drop and WAN cost must not rise beyond BENCH_TOLERANCE.
bench-check:
	$(MAKE) bench BENCH_OUT=bench-check-new.json
	$(GO) run ./cmd/benchjson -check $(BENCH_BASELINE) bench-check-new.json -tolerance $(BENCH_TOLERANCE)

# Determinism gate: every deterministic surface byte-identical between the
# sequential and the parallel scheduler (see scripts/determinism.sh).
determinism:
	sh scripts/determinism.sh

# CPU and heap profiles over the Figure-7 session benchmark (the workload
# most representative of paper runs). Inspect with `go tool pprof
# wadeploy.test cpu.out` / `go tool pprof wadeploy.test mem.out`.
profile:
	$(GO) test -bench=BenchmarkFigure7PetStoreSessions -benchtime=1x -run '^$$' \
		-cpuprofile=cpu.out -memprofile=mem.out -o wadeploy.test .

# Full paper-length reproduction: Tables 6-7 and Figures 7-8 at one virtual
# hour per configuration (about a minute of wall-clock time), plus the
# DB-replication extension row and diagnostics.
repro:
	$(GO) run ./cmd/wadeploy -diag -ext -p95 all

repro-quick:
	$(GO) run ./cmd/wadeploy -quick all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/custom
	$(GO) run ./examples/petstore
	$(GO) run ./examples/rubis
	$(GO) run ./examples/failover
	$(GO) run ./examples/autoscale

clean:
	$(GO) clean ./...
