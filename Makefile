# Silent Shredder reproduction — developer entry points.
# Everything is plain `go` under the hood; these are just the common runs.

GO ?= go

.PHONY: all build test vet deadcode race faults fuzz cover bench bench-json bench-compare bench-smoke pgo quick-experiments experiments examples clean

all: build vet test race

build:
	$(GO) build ./...

# Static gate: go vet plus the gofmt check — the tree must be gofmt-clean
# (gofmt -l prints offending files; any output fails the target). bench/
# is a module of its own, so ./... skips it and it is vetted on its own.
# internal/aes has an amd64 assembly kernel, so its packages are also
# vetted for arm64, which builds the generic file in its place. Last, the
# dead-code gate.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/aes ./internal/ctr
	cd bench && $(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(MAKE) deadcode

# Dead-code gate: code under internal/ cannot be imported from outside the
# module, so the binaries (cmd/*, examples/*, bench) are its only users.
# The script builds them with inlining off and fails when a function
# declared in a non-test internal/ file is linked into none of them and is
# not in scripts/deadcode.allow, or when an allow-list line names a
# function that is linked or gone. Each allow-list line gives its reason.
deadcode:
	sh scripts/deadcode.sh

test:
	$(GO) test ./...

# Tier-1 race gate: the parallel sweep engine fans independent machines
# out across goroutines; every run must stay confined to its worker.
# This exercises the worker pool (determinism tests run with -parallel 4)
# under the race detector and must pass before merging. It also runs the
# oracle-checked short workload sweeps (exper.TestCheckedWorkloadSweeps
# and the sim/oracle reference-model tests), so every merge re-validates
# the architectural contract under -race. The committed goldens are rows
# of `go test` (cmd/experiments TestGoldens, cmd/shredsim TestGolden,
# cmd/leakscan TestAttackJSONGolden), so they run here too. The rows
# that render the adversary matrix skip under -race (one render takes
# over a minute there), so the second line runs them without it. Last,
# the trace-replay benchmark's smoke test (bench/ is a module of its
# own, so ./... above skips it) replays all four workloads at reduced
# size with oracle and digest checks. The purego line runs the aes, ctr
# and memctrl tests on the path hosts without AES-NI take: the package's
# generic file, with no four-block kernel, over crypto/aes's generic Go
# code. It checks that path against the FIPS vectors, EncryptRef and the
# pad equivalence tests, and checks the controller's page zeroing, whose
# 64 pads are one 256-block AES pass, against its per-block reference.
race: vet faults bench-smoke
	$(GO) test -race ./...
	$(GO) test -run 'TestGoldens/adversary' ./cmd/experiments
	$(GO) test -tags purego ./internal/aes ./internal/ctr ./internal/memctrl
	cd bench && $(GO) test ./...

# Robustness gate, folded into tier-1 `race`: the fault-injection and
# crash-anywhere packages under the race detector, then the deterministic
# fault-rate sweep and the crash-anywhere recovery sweep end to end
# (includes the post-crash leak scan via leakscan -crash).
faults:
	$(GO) test -race ./internal/fault ./internal/sim ./internal/memctrl
	$(GO) run -race ./cmd/experiments -quick -cores 2 faults crash
	$(GO) run -race ./cmd/leakscan -crash 8 -seed 42

# Bounded fuzzing pass over the fuzz targets (seed corpora are committed
# under testdata/fuzz). FUZZTIME bounds each target's run. Minimizing a
# new input is bounded to 1s: at go's default of 60s, a target that finds
# one spends the rest of its FUZZTIME minimizing it instead of fuzzing.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzTraceCodec -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzOracleDifferential -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/ctr -run='^$$' -fuzz=FuzzPadEquivalence -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzBankSchedule -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/integrity -run='^$$' -fuzz=FuzzEngineEquivalence -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/cache -run='^$$' -fuzz=FuzzCacheReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/hier -run='^$$' -fuzz=FuzzHierarchy -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/addr -run='^$$' -fuzz=FuzzPageTable -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s
	$(GO) test ./internal/nvm -run='^$$' -fuzz=FuzzWearReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s

# Coverage over all packages; prints the total and leaves cover.out for
# `go tool cover -html=cover.out`. Fails when the total statement coverage
# is below COVER_FLOOR, the floor COVERAGE.md records.
COVER_FLOOR = 89.0
cover:
	$(GO) test ./... -coverprofile=cover.out
	@$(GO) tool cover -func=cover.out | tail -n 1
	@$(GO) tool cover -func=cover.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { t = $$3; sub("%", "", t); if (t + 0 < floor + 0) { \
		print "coverage " t "% is below the " floor "% floor"; exit 1 } }'

# Benchmark pipeline. `bench` runs every benchmark (no unit tests),
# records the raw text, and converts it into the snapshot $(BENCH_JSON),
# bench_new.json by default (`make clean` deletes it). The committed
# BENCH_<n>.json snapshots are history: write a new one only by naming
# it, `make bench BENCH_JSON=BENCH_<n>.json`. The old `... | tee
# bench_output.txt` recipe masked benchmark failures behind tee's exit
# status; writing the file directly and catting it afterwards preserves
# both the transcript and the exit code.
BENCH_JSON ?= bench_new.json
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./... > bench_output.txt 2>&1 \
		|| { cat bench_output.txt; exit 1; }
	@cat bench_output.txt
	$(GO) run ./cmd/benchjson -in bench_output.txt -out $(BENCH_JSON)

# Convert an existing bench_output.txt into $(BENCH_JSON) without
# rerunning the benchmarks (runs them first if no transcript exists).
bench-json:
	@test -f bench_output.txt || $(MAKE) bench
	$(GO) run ./cmd/benchjson -in bench_output.txt -out $(BENCH_JSON)

# Compare two benchmark snapshots; fails on any ns/op regression past
# THRESHOLD (ratio) or any allocs/op increase.
#   make bench-compare BASE=BENCH_7.json NEW=BENCH_9.json [THRESHOLD=1.30]
BASE ?= BENCH_7.json
NEW ?= BENCH_9.json
THRESHOLD ?= 1.30
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(THRESHOLD) $(BASE) $(NEW)

# Smoke variant folded into tier-1 `race`: every benchmark runs exactly
# one iteration, catching panics and b.Fatal conditions (empty sweeps,
# missing figure points) without paying for timing-quality runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > /dev/null

# Regenerate cmd/experiments/default.pgo, the profile `go build` applies
# to the experiments CLI and bench/run.sh to the benchmark, from declared
# runs, and print its SHA-256. The benchmark's traced mode CPU-profiles
# 5 s of plain replays of each of its four workloads on training seed 11
# (measure claims on other seeds), and the experiments CLI profiles the
# faithful fig8 sweep; the five profiles are merged into one. Refresh the
# profile in a PR of its own, never in one that claims a gain from a code
# change (DESIGN.md §8.3).
pgo:
	bash bench/run.sh -workload all -seed 11 -seconds 10 -trace 1
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -cores 2 -scale 32 -parallel 1 -cpuprofile "$$tmp/fig8.cpu.pprof" fig8 > /dev/null && \
	$(GO) tool pprof -proto -output "$$tmp/default.pgo" bench/out/spec_timing.cpu.pprof \
		bench/out/churn_ntzero.cpu.pprof bench/out/churn_shred.cpu.pprof \
		bench/out/graph_merkle.cpu.pprof "$$tmp/fig8.cpu.pprof" && \
	mv "$$tmp/default.pgo" cmd/experiments/default.pgo
	sha256sum cmd/experiments/default.pgo

# Fast smoke pass over every experiment in `all` (about 3 s at
# -parallel 2; -parallel defaults to GOMAXPROCS).
quick-experiments:
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 all

# The full evaluation reproduction (about 80 s at -parallel 2; the sweep
# engine uses every available core by default — pass PARALLEL=N to pin).
PARALLEL ?= 0
experiments:
	$(GO) run ./cmd/experiments -parallel $(PARALLEL) all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/graphanalytics
	$(GO) run ./examples/vmisolation
	$(GO) run ./examples/largeinit
	$(GO) run ./examples/persistent

clean:
	rm -f bench_output.txt bench_new.json cover.out
