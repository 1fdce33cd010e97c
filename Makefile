GO ?= go

.PHONY: all build test tier1 tier2 lint race bench bench-test bench-smoke bench-compare bench-experiments paranoia fuzz-smoke daemon-smoke chaos profile-cpu profile-mem clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier 1: the must-stay-green gate (fast, run on every change).
tier1:
	$(GO) build ./... && $(GO) test ./...

# Lint: formatting (gofmt -l exits 0 even with findings, so fail on output)
# plus go vet. CI runs this as its own step.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# Tier 2: static analysis plus the full suite under the race detector.
# Includes TestEngineDeterminismAcrossWorkers, which drives real simulations
# through the 8-worker pool and compares rows against a sequential run.
# go test's -timeout applies to each package binary, and the tea package's
# corpus, equivalence and paranoia suites take most of its race run, so
# ./tea runs as two complementary commands: those four tests, then every
# other test (-skip). Each command gets the whole timeout, and every test
# still runs once.
TEA_RACE_HEAVY = ^(TestGoldenCorpus|TestFastPathEquivalence|TestSpecModeEquivalence|TestParanoiaSuite)$$
tier2:
	$(GO) vet ./...
	$(GO) test -race -timeout 30m $$($(GO) list ./... | grep -vx teasim/tea)
	$(GO) test -race -timeout 30m -run '$(TEA_RACE_HEAVY)' ./tea
	$(GO) test -race -timeout 30m -skip '$(TEA_RACE_HEAVY)' ./tea

race: tier2

# Microbenchmark of the pipeline hot path; watch the allocs/kinstr metric.
bench:
	$(GO) test ./internal/pipeline/ -bench CorePerCycle -benchtime 2s -run XXX

# The repository benchmark's own tests. bench/ is a separate Go module
# (bench/README.md), so tier1's `go test ./...` does not reach it.
bench-test:
	cd bench && $(GO) test ./...

# Figure/table benchmarks at reduced budgets (see bench_test.go).
bench-experiments:
	$(GO) test -bench 'Fig10|Fig5' -benchtime=1x -run XXX

# Quick throughput/allocation health check, summarized as JSON (CI runs this;
# BENCH_PR3.json and BENCH_PR6.json in the repo root are committed reference
# snapshots).
BENCH_SMOKE_OUT ?= bench-smoke.json
bench-smoke:
	$(GO) test -bench 'SimulatorThroughput|Fig8VsRunahead' -benchtime=1x -run XXX . \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson -o $(BENCH_SMOKE_OUT)
	@echo "wrote $(BENCH_SMOKE_OUT)"

# Regression gate: run the smoke benchmarks and fail if sim-instrs/s dropped
# more than MAX_REGRESS percent against the committed baseline — the newest
# BENCH_PR<N>.json snapshot in the repo root (version-sorted, so PR10 beats
# PR9). CI runs this after bench-smoke; run it locally before sending
# perf-sensitive changes.
BENCH_BASELINE ?= $(shell ls BENCH_PR*.json | sort -V | tail -1)
MAX_REGRESS ?= 10
bench-compare: bench-smoke
	$(GO) run ./internal/tools/benchjson -compare -max-regress $(MAX_REGRESS) \
		$(BENCH_BASELINE) $(BENCH_SMOKE_OUT)

# Paranoia suite: the full workload × preset matrix with the per-cycle
# invariant checker armed (see internal/pipeline/paranoia.go), asserting
# results stay bit-identical to unchecked runs. Slow; tier1 runs the
# trimmed default (plain TestParanoiaSuite) and CI's robustness job runs
# this full form.
paranoia:
	$(GO) test ./tea/ -run TestParanoiaSuite -paranoia-full -count=1 -timeout 30m

# Fuzz smoke: a short budget on each tea/spec fuzz target, enough to catch
# parser/patch regressions that panic on malformed input.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./tea/spec -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME)
	$(GO) test ./tea/spec -run '^$$' -fuzz FuzzSetPatch -fuzztime $(FUZZTIME)

# Daemon smoke: boot teasrvd, POST a tiny Fig 8 matrix, and assert the
# served report is byte-identical to the direct library run, a re-POST is
# served entirely from the result store, and SIGTERM drains cleanly
# (see scripts/daemon_smoke.sh; CI runs this as its own job).
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Chaos smoke: run a small matrix on a real multi-process worker fabric with
# faultinject armed (worker SIGKILL mid-shard, torn journal write, full pool
# collapse) and assert the merged report stays byte-identical to a clean
# single-process run (see scripts/chaos_smoke.sh; CI runs this in the
# robustness job).
chaos:
	sh scripts/chaos_smoke.sh

# Profiling workflow (see README "Profiling and parallelism"): run an
# experiment under the profiler, then inspect with `go tool pprof`.
profile-cpu:
	$(GO) run ./cmd/teaexp -exp fig5 -n 200000 -cpuprofile cpu.pprof
	@echo "inspect with: go tool pprof -top cpu.pprof"

profile-mem:
	$(GO) run ./cmd/teaexp -exp shootout -n 100000 -memprofile mem.pprof
	@echo "inspect with: go tool pprof -top -sample_index=alloc_objects mem.pprof"

clean:
	rm -f cpu.pprof mem.pprof
