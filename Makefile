GO ?= go

.PHONY: all build test vet race lockstep chaos chaos-selectors bench-selectors fuzz check bench bench-mod bench-smoke cover loc supervise-demo fleet-demo load-demo

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full suite under the race detector. The chaos tests run here too —
# their seeds are fixed in-source, so failures reproduce exactly.
race:
	$(GO) test -race ./...

# The lockstep gate: the whole suite again, built with the
# dynacut_lockstep tag. Every machine from NewMachine then runs
# ModeLockstep, and a block-cache divergence panics instead of being
# evicted and logged, so every test doubles as a differential test of
# the translation cache. A machine whose test picks its engine with
# SetExecMode is exempt.
lockstep:
	$(GO) test -tags dynacut_lockstep ./...

# Just the fault-injection / transactional-rewrite suites, plus the
# observability assertions that every injected fault lands in the
# trace. Runs vet first and the coverage floor last: the chaos gate is
# also the lint and coverage gate.
CHAOS_RUN := Chaos|Rollback|Rolls|Transient|Retried|Revalidated|Corrupt|BitFlip|Truncation|Observer|Overflow|Supervisor|Breaker|Storm|Fleet|Controller|Journal|Lease|MidWave|Pristine|PageStore|LivePatch|InstallHandler|Attest|Scrub|Quarantine|Repair|Lockstep|Translate|BlockCache|FlipBits|Clone|TLB
CHAOS_PKGS := ./internal/core/ ./internal/crit/ ./internal/criu/ ./internal/faultinject/ ./internal/fleet/ ./internal/kernel/ ./internal/obs/ ./internal/supervise/ .
LOAD_CHAOS_RUN := Driver|Pool|Merge|Schedule|Ramp|Poisson|TraceCSV|Histogram|Mix|RolloutUnderLoad|SteadyState|HaltReleases|ConfigValidation|LivePatch|Scrub
LOAD_CHAOS_PKGS := ./internal/loadgen/ ./internal/slo/

chaos: vet chaos-selectors bench-selectors
	$(GO) test -race -run '$(CHAOS_RUN)' $(CHAOS_PKGS)
	$(GO) test -race -run '$(LOAD_CHAOS_RUN)' $(LOAD_CHAOS_PKGS)
	$(MAKE) cover

# `check SELECTOR PKGS KINDS` fails unless every |-separated token of
# SELECTOR names at least one function of KINDS (a regex of name
# prefixes) in PKGS, as `go test -list` reports them: a token left
# selecting nothing once its functions are deleted or renamed would
# silently drop them from the gate or the record.
SELECTOR_CHECK = check() { \
		names=$$($(GO) test -list . $$2 | grep -E "^($$3)") || { echo "FAIL: no $$3 listed in $$2"; exit 1; }; \
		for tok in $$(echo "$$1" | tr '|' ' '); do \
			echo "$$names" | grep -qE "$$tok" || { echo "FAIL: selector '$$tok' selects no $$3 in $$2"; exit 1; }; \
		done; \
	}

# Every token of the chaos -run selectors must select a test, fuzz
# target or example.
chaos-selectors:
	@$(SELECTOR_CHECK); \
	check '$(CHAOS_RUN)' '$(CHAOS_PKGS)' 'Test|Fuzz|Example' && \
	check '$(LOAD_CHAOS_RUN)' '$(LOAD_CHAOS_PKGS)' 'Test|Fuzz|Example' && \
	echo "chaos selectors: every token selects a test"

# Every token of the `make bench` selector must select a benchmark.
bench-selectors:
	@$(SELECTOR_CHECK); \
	check '$(BENCH_RUN)' '$(BENCH_PKGS)' 'Benchmark' && \
	echo "bench selectors: every token selects a benchmark"

# Whole-suite statement coverage against the checked-in floor
# (COVERAGE_FLOOR). Raise the floor when coverage rises; the gate
# fails if a change drops below it.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./... > /dev/null
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat COVERAGE_FLOOR); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t + 0 < f + 0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Non-test Go line count outside benchmark/ — the size figure the
# simplicity items on the roadmap quote. Prints only; gates nothing.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | xargs cat | wc -l

# Short fuzz smoke over the image decoder, image-set edits against a
# map model, the rollout-journal decoder, the basic-block translator
# and the software TLB (corpus seeds always run as part of `test`;
# this adds a few seconds of mutation each). Minimising a new input is
# bounded to a second: unbounded, it can take the rest of the run, and
# the coordinator then reports 0 execs/sec until the time is up.
FUZZ := -run '^$$' -fuzztime 10s -fuzzminimizetime 1s
fuzz:
	$(GO) test $(FUZZ) -fuzz FuzzUnmarshalImages ./internal/criu/
	$(GO) test $(FUZZ) -fuzz FuzzImageEdits ./internal/criu/
	$(GO) test $(FUZZ) -fuzz FuzzDecodeJournal ./internal/fleet/
	$(GO) test $(FUZZ) -fuzz FuzzBlockCacheDecode ./internal/kernel/
	$(GO) test $(FUZZ) -fuzz FuzzMemoryTLB ./internal/kernel/

# The benchmark is a module of its own, outside `./...`: vet and test
# it here so a facade change that breaks it fails locally too.
bench-mod:
	cd benchmark && $(GO) vet . && $(GO) test .

# The tier-1 gate: everything that must pass before a commit.
check: build vet test race lockstep bench-mod

# Perf trajectory: run the headline figure benchmarks plus the
# checkpoint-dump benchmark and record the numbers as JSON so each
# PR's results are comparable to the last (BENCH_pr2.json here on).
BENCH_JSON ?= BENCH_pr10.json
BENCH_RUN := Figure6_|Figure7_|Figure8_|CheckpointDump|Observer_|SupervisorOverhead|FleetRollout|FleetSpawn|FleetControllerScale|PageStoreParallel|RewriteUnderLoad|ExecEngine
BENCH_PKGS := . ./internal/criu/

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_RUN)' -benchmem -benchtime 1x $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)

# End-to-end smoke of the benchmark (benchmark/run.sh): one 1-second
# run of each workload. Fails unless every run's JSON result line says
# all checks were correct and none failed — the GET/PUT probes after
# every rollout and cut are the behavioural evidence.
bench-smoke:
	@for w in spec-exec kv-cut fleet-rollout; do \
		line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -q '"failed":0[,}]' \
			|| { echo "FAIL: bench-smoke $$w"; exit 1; }; \
	done

# The historical full sweep (every figure, table, ablation and micro).
bench-all:
	$(GO) test -bench . -benchmem .

# One traced rewrite under fault injection: prints the phase summary
# and writes the JSONL trace next to the benchmark records.
trace-demo:
	$(GO) run ./cmd/tracedemo -o trace.jsonl

# The closed loop end to end: disable a feature through the
# supervisor, drive a trap storm, and watch the degradation ladder
# re-enable it and open its circuit breaker.
supervise-demo:
	$(GO) run ./cmd/supervisedemo

# Fleet-scale customization end to end: CoW replicas over the shared
# page store, staged canary/wave rollout, halt-and-restore on a
# sabotaged replica (tune with -replicas/-failat), or controller
# crash-and-resume from the rollout journal (-crash N).
fleet-demo:
	$(GO) run ./cmd/fleetdemo

# The staged rollout again, but measured from the traffic's side:
# open-loop load (constant/ramp/poisson/trace schedules) runs against
# every replica while the rollout rewrites them, and the SLO table
# cross-checks each replica's journal-stamped downtime against the
# service gap the load generator observed.
load-demo:
	$(GO) run ./cmd/fleetdemo -load
