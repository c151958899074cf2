# ftb — fault tolerance boundary. Standard-library Go only.

GO ?= go

.PHONY: all check ci build test vet lint race cover bench bench-proptrace bench-cluster bench-replay bench-store bench-compose bench-obs bench-scenarios bench-check bench-all scenario-validate scenario-run crashtest examples repro clean

# GATE holds the statistical-gate knobs shared by the cheap benchmark
# suites: three reruns per benchmark (the variance floor) aggregated to
# their median, with an ns/op coefficient-of-variation bound so a noisy
# measurement fails loudly instead of gating on garbage.
GATE_RUNS ?= 3
GATE_MAX_CV ?= 0.50
GATE = -gate -runs $(GATE_RUNS) -max-cv $(GATE_MAX_CV)
# GATE_THRESHOLD is the ns/op regression bound for the -compare lines.
# Shared/virtualized runners drift between sustained-throughput modes,
# and isolated benchmarks show 25-50% outliers between back-to-back
# windows (measured on the 1-core reference box), so the default must
# sit above that band; tighten it (GATE_THRESHOLD=0.25) on quiet
# dedicated hardware. Ratio-based gates (the obs overhead ceiling, the
# replay speedup floor and the in-bench compose bound) are measured
# within one run and stay tight regardless. The cluster tax (selfhost1
# over inprocess, recorded at 1.54x) is not ratio-gated.
GATE_THRESHOLD ?= 0.60
# REPLAY_SPEEDUP_MIN is the relative-speedup floor the replay suite must
# clear: checkpointed replay at least this many times faster than
# vanilla full re-execution on the mid-size gmres-paper campaign. The
# ratio is measured within one run (same machine, same load), so it
# stays tight where absolute ns/op baselines drift — but single-sample
# ratios on a shared builder still swing: recordings have measured
# 1.85x-2.04x on the same code. The floor sits below that band with
# headroom so the gate catches a cache that stopped paying (ratio
# collapsing toward 1x), not builder weather.
REPLAY_SPEEDUP_MIN ?= 1.7
REPLAY_SPEEDUP = -speedup 'BenchmarkReplayExhaustive/gmres-paper/vanilla:BenchmarkReplayExhaustive/gmres-paper/replay=$(REPLAY_SPEEDUP_MIN)'

all: check

# COVER_MIN is the enforced aggregate statement-coverage floor for the
# internal packages (currently ~91%; the gate leaves headroom for churn).
COVER_MIN ?= 85.0

# check is the default gate: compile, lint (vet + format + staticcheck
# when available), unit tests, and the race detector over the concurrent
# packages (the campaign engine and the trace runner it drives).
check: build lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi

# lint is vet + gofmt plus staticcheck when it is installed; staticcheck
# is never fetched (offline builds stay green) — the gate just reports
# that it was skipped.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# ci mirrors .github/workflows/ci.yml for local runs: the full check
# gate plus the coverage floor and the examples smoke test.
ci: check cover examples

race:
	$(GO) test -race ./internal/campaign/... ./internal/trace/... ./internal/boundary/... ./internal/telemetry/... ./internal/cluster/... ./internal/store/... ./internal/obs/...

# cover prints per-package coverage and enforces COVER_MIN on the
# aggregate statement coverage of the internal packages.
cover:
	$(GO) test -cover ./...
	@$(GO) test -coverpkg=./internal/... -coverprofile=cover.out ./internal/... >/dev/null
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	rm -f cover.out; \
	echo "internal/... aggregate coverage: $$total% (minimum $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
		{ echo "coverage below $(COVER_MIN)%"; exit 1; }

# bench runs the campaign-engine benchmarks (scheduling modes plus the
# telemetry collector on/off comparison) and records them as
# machine-readable JSON alongside the raw text.
bench:
	$(GO) test -run '^$$' -bench '^(BenchmarkScheduling|BenchmarkEngineCollector)' -benchmem -benchtime=50x -count=$(GATE_RUNS) ./internal/campaign/ | tee BENCH_campaign.txt | $(GO) run ./cmd/benchjson $(GATE) > BENCH_campaign.json
	@echo "wrote BENCH_campaign.txt and BENCH_campaign.json"

# bench-proptrace measures trajectory-recording overhead on diff-mode
# runs (interleaved paired batches, so machine noise hits both sides
# equally) and records the result next to the engine benchmarks.
bench-proptrace:
	$(GO) test -run '^$$' -bench 'BenchmarkRecorder' -benchmem -count=$(GATE_RUNS) ./internal/proptrace/ | tee BENCH_proptrace.txt | $(GO) run ./cmd/benchjson $(GATE) > BENCH_proptrace.json
	@echo "wrote BENCH_proptrace.txt and BENCH_proptrace.json"

# bench-cluster records the coordinator tax: one exhaustive campaign
# in-process versus through a single self-hosted worker process. The
# recorded selfhost1/inprocess ratio is 1.54 (median ns/op of three runs
# each, BENCH_cluster.json). No gate bounds that ratio: bench-check
# compares each side's ns/op with its own recording only.
bench-cluster:
	$(GO) test -run '^$$' -bench BenchmarkClusterOverhead -benchtime=50x -count=$(GATE_RUNS) ./internal/cluster/ | tee BENCH_cluster.txt | $(GO) run ./cmd/benchjson $(GATE) > BENCH_cluster.json
	@echo "wrote BENCH_cluster.txt and BENCH_cluster.json"

# bench-replay records what checkpointed prefix replay buys on a full
# exhaustive campaign (replay on vs off, small and mid-size kernel),
# through the statistical gate like the other suites: the cheap cg-test
# pair runs GATE_RUNS times and lands as its median, the minutes-long
# gmres-paper pair runs once (-runs 1 is the explicit floor accommodating
# that single sample). The vanilla/replay ns/op ratio on gmres-paper is
# the acceptance figure, enforced as a relative-speedup floor
# (REPLAY_SPEEDUP_MIN) at record time and again by bench-check.
bench-replay:
	( $(GO) test -run '^$$' -bench 'BenchmarkReplayExhaustive/cg-test' -benchtime=1x -count=$(GATE_RUNS) ./internal/campaign/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkReplayExhaustive/gmres-paper' -benchtime=1x -timeout 90m ./internal/campaign/ ) | tee BENCH_replay.txt | $(GO) run ./cmd/benchjson -gate -runs 1 -max-cv $(GATE_MAX_CV) $(REPLAY_SPEEDUP) > BENCH_replay.json
	@echo "wrote BENCH_replay.txt and BENCH_replay.json"

# bench-store records the ground-truth store's cost model: append
# throughput, point lookup, range scan, full materialization, and the
# legacy container load it replaces (LoadGroundTruth, the migration
# baseline).
bench-store:
	$(GO) test -run '^$$' -bench '^(BenchmarkStore|BenchmarkLoadGroundTruth)' -benchmem -count=$(GATE_RUNS) ./internal/store/ | tee BENCH_store.txt | $(GO) run ./cmd/benchjson $(GATE) > BENCH_store.json
	@echo "wrote BENCH_store.txt and BENCH_store.json"

# bench-compose records what compositional section campaigns buy over a
# replay-enabled exhaustive campaign (composed vs exhaustive wall time on
# fft/cg at paper size). The bench itself gates zero outcome mismatches
# against ground truth and a ≥3x stores-executed speedup per kernel; the
# recorded pair in BENCH_compose.json is the acceptance artifact.
bench-compose:
	$(GO) test -run '^$$' -bench BenchmarkComposeExhaustive -benchtime=1x -timeout 90m ./internal/campaign/ | tee BENCH_compose.txt | $(GO) run ./cmd/benchjson > BENCH_compose.json
	@echo "wrote BENCH_compose.txt and BENCH_compose.json"

# bench-obs records the span-tracing tax on an exhaustive campaign:
# paired spans-off/spans-on rounds reduced to a median overhead_pct
# metric. The recorded figure is gated at ≤5% by bench-check (benchjson
# -ceiling), the span subsystem's acceptance budget.
bench-obs:
	$(GO) test -run '^$$' -bench BenchmarkEngineSpans -benchtime=1x ./internal/campaign/ | tee BENCH_obs.txt | $(GO) run ./cmd/benchjson > BENCH_obs.json
	@echo "wrote BENCH_obs.txt and BENCH_obs.json"

# bench-scenarios records the end-to-end scenario suite (parse, campaign,
# gate evaluation per checked-in scenario) as a statistical baseline:
# three samples per scenario aggregated to their median by benchjson -gate.
bench-scenarios:
	$(GO) test -run '^$$' -bench '^BenchmarkScenario' -benchtime=10x -count=$(GATE_RUNS) . | tee BENCH_scenarios.txt | $(GO) run ./cmd/benchjson $(GATE) > BENCH_scenarios.json
	@echo "wrote BENCH_scenarios.txt and BENCH_scenarios.json"

# bench-check is the release gate: re-run every recorded benchmark
# suite against its committed BENCH_*.json and fail on any ns/op
# regression beyond GATE_THRESHOLD (benchjson -compare). The cheap
# suites run through the statistical -gate path — three reruns per
# benchmark, aggregated to the median, with a variance bound — so a
# single noisy sample can neither pass nor fail the gate on its own.
# The minutes-long 1x suites (replay, compose, obs) stay single-sample
# with the floor relaxed; the obs suite additionally enforces the
# absolute ≤5% span-overhead ceiling, and the replay suite the
# REPLAY_SPEEDUP_MIN relative-speedup floor on gmres-paper.
bench-check:
	$(GO) test -run '^$$' -bench '^(BenchmarkScheduling|BenchmarkEngineCollector)' -benchmem -benchtime=50x -count=$(GATE_RUNS) ./internal/campaign/ | $(GO) run ./cmd/benchjson $(GATE) -compare BENCH_campaign.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench 'BenchmarkRecorder' -benchmem -count=$(GATE_RUNS) ./internal/proptrace/ | $(GO) run ./cmd/benchjson $(GATE) -compare BENCH_proptrace.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench BenchmarkClusterOverhead -benchtime=50x -count=$(GATE_RUNS) ./internal/cluster/ | $(GO) run ./cmd/benchjson $(GATE) -compare BENCH_cluster.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench '^(BenchmarkStore|BenchmarkLoadGroundTruth)' -benchmem -count=$(GATE_RUNS) ./internal/store/ | $(GO) run ./cmd/benchjson $(GATE) -compare BENCH_store.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench '^BenchmarkScenario' -benchtime=10x -count=$(GATE_RUNS) . | $(GO) run ./cmd/benchjson $(GATE) -compare BENCH_scenarios.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench BenchmarkReplayExhaustive -benchtime=1x -timeout 90m ./internal/campaign/ | $(GO) run ./cmd/benchjson -gate -runs 1 -compare BENCH_replay.json -threshold $(GATE_THRESHOLD) $(REPLAY_SPEEDUP)
	$(GO) test -run '^$$' -bench BenchmarkComposeExhaustive -benchtime=1x -timeout 90m ./internal/campaign/ | $(GO) run ./cmd/benchjson -gate -runs 1 -compare BENCH_compose.json -threshold $(GATE_THRESHOLD)
	$(GO) test -run '^$$' -bench BenchmarkEngineSpans -benchtime=1x ./internal/campaign/ | $(GO) run ./cmd/benchjson -gate -runs 1 -compare BENCH_obs.json -threshold $(GATE_THRESHOLD) -ceiling overhead_pct=5

bench-all:
	$(GO) test -bench=. -benchmem ./...

# scenario-validate parses and validates every checked-in scenario
# without running any campaign — the PR-time CI job.
scenario-validate:
	$(GO) run ./cmd/ftbcli scenario validate ./scenarios/...

# scenario-run executes the scenario suite and fails on any gate
# violation; the gates pin exact outcome counts, so this is the
# end-to-end determinism check.
scenario-run:
	$(GO) run ./cmd/ftbcli scenario run scenarios

# crashtest proves resumability under SIGKILL: a worker process killed
# mid-lease and a coordinator process killed mid-campaign must both
# resume to a ground truth byte-identical to an undisturbed run, under a
# non-default fault model. The JSON report is the CI artifact.
crashtest:
	$(GO) build -o bin/ftbcli ./cmd/ftbcli
	$(GO) build -o bin/crashtest ./cmd/crashtest
	./bin/crashtest -scenario scenarios/stencil-burst3.yaml -ftbcli bin/ftbcli -report crashtest-report.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/errorprop
	$(GO) run ./examples/vulnmap
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/protect
	$(GO) run ./examples/workflow

# Reproduce the paper's evaluation (Tables 1-4, Figures 3-5, ablations).
# Takes tens of minutes at paper scale on one core; see EXPERIMENTS.md.
repro:
	$(GO) run ./cmd/ftbcli exp all -size paper -trials 5 | tee results_paper.txt
	$(GO) run ./cmd/ftbcli exp baseline -size paper -trials 5 | tee -a results_extra.txt
	$(GO) run ./cmd/ftbcli exp ablation -size paper -trials 3 | tee -a results_extra.txt
	$(GO) run ./cmd/ftbcli exp sensitivity -size paper -trials 5 | tee -a results_extra.txt

clean:
	$(GO) clean ./...
