# Silent Shredder reproduction — developer entry points.
# Everything is plain `go` under the hood; these are just the common runs.

GO ?= go

.PHONY: all build test vet race faults obs banks adversary merkle telemetry fuzz cover bench bench-json bench-compare bench-smoke quick-experiments experiments examples clean

all: build vet test race

build:
	$(GO) build ./...

# Static gate: go vet plus the gofmt check — the tree must be gofmt-clean
# (gofmt -l prints offending files; any output fails the target).
vet:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test:
	$(GO) test ./...

# Tier-1 race gate: the parallel sweep engine fans independent machines
# out across goroutines; every run must stay confined to its worker.
# This exercises the worker pool (determinism tests run with -parallel 4)
# under the race detector and must pass before merging. It also runs the
# oracle-checked short workload sweeps (exper.TestCheckedWorkloadSweeps
# and the sim/oracle differential tests), so every merge re-validates the
# architectural contract under -race. Last, the trace-replay benchmark's
# smoke test (bench/ is a module of its own, so ./... above skips it)
# replays all four workloads at reduced size with oracle and digest checks.
race: vet faults obs adversary merkle telemetry bench-smoke
	$(GO) test -race ./...
	cd bench && $(GO) test ./...

# Robustness gate, folded into tier-1 `race`: the fault-injection and
# crash-anywhere packages under the race detector, then the deterministic
# fault-rate sweep and the crash-anywhere recovery sweep end to end
# (includes the post-crash leak scan via leakscan -crash).
faults:
	$(GO) test -race ./internal/fault ./internal/sim ./internal/memctrl
	$(GO) run -race ./cmd/experiments -quick -cores 2 faults crash
	$(GO) run -race ./cmd/leakscan -crash 8 -seed 42

# Observability gate, folded into tier-1 `race`: the event-bus, epoch,
# and CLI-glue packages (golden trace/epoch exporter tests, the
# zero-allocation disabled path, parallel-sweep artifact determinism),
# then the obs-off byte-identity check — default CLI output must match
# the committed goldens exactly, proving the layer costs nothing when
# disabled. Regenerate goldens after an intentional output change with
# the same two commands redirected into testdata/golden/.
obs:
	$(GO) test ./internal/obs ./internal/stats ./internal/obscli ./internal/exper
	$(GO) run ./cmd/shredsim -quick -scale 64 -cores 2 -parallel 2 -workload pagerank,mcf \
		| diff -u testdata/golden/shredsim_quick.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 2 table2 fig5 2>/dev/null \
		| diff -u testdata/golden/experiments_quick.txt -
	$(MAKE) banks

# Banked-controller gate, folded into tier-1 `race` via `obs`: the
# concurrent controller datapath (-mc-workers) must reproduce the SAME
# goldens byte for byte at any width — the refactor's determinism
# contract — and the bank-geometry sweep must match its own golden.
banks:
	$(GO) run ./cmd/shredsim -quick -scale 64 -cores 2 -parallel 2 -mc-workers 8 -workload pagerank,mcf \
		| diff -u testdata/golden/shredsim_quick.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 2 -mc-workers 8 table2 fig5 2>/dev/null \
		| diff -u testdata/golden/experiments_quick.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 2 banks 2>/dev/null \
		| diff -u testdata/golden/experiments_banks.txt -

# Adversary gate, folded into tier-1 `race`: the persistence-attack
# matrix (remanence / scavenger / replay attackers vs every personality
# and shred policy) must reproduce its committed golden byte for byte at
# any sweep width, and the leakscan adversarial driver's JSON report
# must match its golden with the leak verdict (exit 1) intact — the
# encrypted/zero-cost defender is SUPPOSED to lose to the stale-counter
# replayer. Regenerate after an intentional change with the same
# commands redirected into the golden files.
adversary:
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 1 adversary 2>/dev/null \
		| diff -u testdata/golden/experiments_adversary.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 4 adversary 2>/dev/null \
		| diff -u testdata/golden/experiments_adversary.txt -
	@out=$$($(GO) run ./cmd/leakscan -attack replay -personality encrypted -format json 2>/dev/null); st=$$?; \
		if [ $$st -ne 1 ]; then echo "leakscan -attack: exit $$st, want 1 (leak verdict)"; exit 1; fi; \
		printf '%s\n' "$$out" | diff -u cmd/leakscan/testdata/attack_replay_encrypted.json -

# Integrity-engine gate, folded into tier-1 `race`: the per-level Merkle
# sweep must reproduce its golden byte for byte at any sweep width and
# any controller width (the per-level figure is rebuilt from the event
# bus, so this pins the engines' event streams too), and the adversary
# matrix must be invariant under the cached engine — lazy root
# maintenance may move hash work, never detection outcomes. Regenerate
# the golden after an intentional change with the first command
# redirected into testdata/golden/experiments_merkle.txt.
merkle:
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 1 merkle 2>/dev/null \
		| diff -u testdata/golden/experiments_merkle.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 4 merkle 2>/dev/null \
		| diff -u testdata/golden/experiments_merkle.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 2 -mc-workers 8 merkle 2>/dev/null \
		| diff -u testdata/golden/experiments_merkle.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 1 -integrity-engine cached adversary 2>/dev/null \
		| diff -u testdata/golden/experiments_adversary.txt -

# Latency-provenance gate, folded into tier-1 `race`: the span and
# telemetry package tests (spans-disabled AllocsPerRun proof, the
# Prometheus /metrics golden, breakdown export round trips), the
# `experiments latency` figure byte-identical to its golden at every
# sweep and controller width, and the spans-enabled shredsim run whose
# default stdout must still match the spans-off golden exactly — span
# recording observes the machine, it must never perturb it. Regenerate
# the latency golden after an intentional change with the first
# experiments command redirected into testdata/golden/.
telemetry:
	$(GO) test ./internal/span ./internal/telemetry
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 1 latency 2>/dev/null \
		| diff -u testdata/golden/experiments_latency.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 4 latency 2>/dev/null \
		| diff -u testdata/golden/experiments_latency.txt -
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 -parallel 2 -mc-workers 8 latency 2>/dev/null \
		| diff -u testdata/golden/experiments_latency.txt -
	@tmp=$$(mktemp); \
		$(GO) run ./cmd/shredsim -quick -scale 64 -cores 2 -parallel 2 -workload pagerank,mcf -obs-spans $$tmp \
			| diff -u testdata/golden/shredsim_quick.txt - || { rm -f $$tmp; exit 1; }; \
		rm -f $$tmp

# Bounded fuzzing pass over the fuzz targets (seed corpora are committed
# under testdata/fuzz). FUZZTIME bounds each target's run.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzTraceCodec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzOracleDifferential -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzCrashRecovery -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/ctr -run='^$$' -fuzz=FuzzPadEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/oracle -run='^$$' -fuzz=FuzzBankSchedule -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/integrity -run='^$$' -fuzz=FuzzEngineEquivalence -fuzztime=$(FUZZTIME)

# Coverage over all packages; prints the per-function summary tail and
# leaves cover.out for `go tool cover -html=cover.out`. The recorded
# baseline is in COVERAGE.md — keep total coverage at or above it.
cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -n 1

# Full test run recorded to test_output.txt (what EXPERIMENTS.md cites).
test-record:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Benchmark pipeline. `bench` runs every benchmark (no unit tests),
# records the raw text, and converts it into the committed trajectory
# snapshot $(BENCH_JSON). The old `... | tee bench_output.txt` recipe
# masked benchmark failures behind tee's exit status; writing the file
# directly and catting it afterwards preserves both the transcript and
# the exit code.
BENCH_JSON ?= BENCH_9.json
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

# Diff two benchmark snapshots; fails on any ns/op regression past
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

# Fast smoke pass over every experiment (~1 minute sequential; scales
# down with -parallel, which defaults to GOMAXPROCS).
quick-experiments:
	$(GO) run ./cmd/experiments -quick -cores 2 -scale 64 all

# The full evaluation reproduction (~10 minutes on one core; the sweep
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
	rm -f test_output.txt bench_output.txt bench_new.json cover.out
