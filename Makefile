# Targets mirrored by .github/workflows/ci.yml.

GO ?= go

# Recorded coverage floor for the `coverage` target: `go test
# -coverprofile` across ./internal/... measured 78.4% when the
# baseline was last moved (PR 10, fault families + clock/recovery
# tests); the gate fails on regression below this. Raise it when new
# tests land, never lower it to make a PR pass.
COVER_BASELINE ?= 77.5

# Per-target budget for the native fuzz targets in the `fuzz` job.
FUZZTIME ?= 30s

# The evidence cycle's costliest steps outside the server: one
# 2048-bit blind signature and redaction of a 60-frame 160x90 video.
# Decoding the 1.15 MB delivery body is among the server benchmarks,
# which all run.
EVIDENCE_BENCH = ^(BenchmarkSignBlinded|BenchmarkRedactChunks)$$

.PHONY: build vet test check race bench-smoke bench-micro lint-docs coverage fuzz scenario-smoke scenario-faults slo-check vmbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

check: build vet test

# The verification sweeps build viewmaps from several goroutines over
# shared profiles (whose Bloom digest caches fill lazily), the
# LOS index builds its grid lazily under concurrent queries, the
# server's sharded store takes concurrent ingest against concurrent
# investigations, and the evidence board takes concurrent deliveries
# and payouts (the evidence package's concurrent delivery and
# many-owner lifecycle tests, the server package's e2e evidence flow);
# keep them all race-clean. The attack package and the online attack-serving
# campaigns (concurrent double-spend and payout races through the
# live HTTP path) ride in the same job. The server line also races
# concurrent batch writers through the burst pipeline's ring handoff
# (TestBurstConcurrentEquivalence) and concurrent appenders through
# the WAL's group commit (TestWALGroupCommit). The scenario engine
# joins with concurrent uploaders retrying through the admission
# gates, a concurrent prober, and the fsync-stall hook firing under
# the WAL's group commit. The observability histograms take
# concurrent recorders against snapshot readers on sharded atomics.
# The warm-vs-cold flood equivalence test races the streaming watch
# notifications and the verdict cache against interleaved
# online-attack ingest (the server package's watch e2e and the core
# equivalence property already ride in the fully raced line above).
# The fault families add a crash-and-recover reopen racing in-flight
# uploaders, a partition mask flipped on the serving path, and the
# retention evictor draining under cold probes. The bank signs while
# LoadFrom swaps its key, and every signature must come from one
# whole key.
race:
	$(GO) test -race ./internal/core/... ./internal/geo/... ./internal/obs/... ./internal/server/... ./internal/evidence/... ./internal/attack/... ./internal/reward/...
	$(GO) test -race -short -run 'TestAttackServingCampaigns|TestScenarioQuick|TestFaultFamilies|TestOnlineFloodWarmColdEquivalence' ./internal/sim/

# Documentation hygiene: formatting, vet, complete doc comments on the
# exported surface of the service-facing packages, resolvable relative
# links in every Markdown file.
lint-docs:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/repolint

# One-iteration pass over the figure-level benchmark suite: catches
# regressions that only surface at experiment scale without paying for a
# full benchmark run. The last line smokes the online attack campaigns
# through the viewmap-bench binary itself (quick scale, one shot; it
# fails hard on any online/offline divergence or accepted fake). The
# evidence micro-benchmarks (blind signing, release redaction) run once
# each so they keep compiling and running, and so do the linker and
# TrustRank micro-benchmarks in internal/core and every internal/server
# benchmark (serving paths including the rebuild-per-request baseline,
# segment reload, delivery decode; the evicted-cached investigation
# fails if it reloads). Timing the system, the evidence cycle
# included, is vmbench's job (vmbench-test, and `python3
# vmbench/run.py`); nothing here writes a tracked file.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/core/
	$(GO) test -run=NONE -bench='$(EVIDENCE_BENCH)' -benchtime=1x ./internal/reward/ ./internal/blur/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./internal/server/
	$(GO) run ./cmd/viewmap-bench -run attack-serving -scale quick

# The benchmark's own tests (vmbench is a module of its own that
# imports this one through a relative replace): tiny runs of all four
# workloads, untraced and traced, with their correctness oracles; the
# printed metric names and units checked against BENCHMARK.json; the
# per-layer attribution identity; and the injected fsync slowdown
# landing in server.fsync_us. About two minutes on a 2-core machine.
vmbench-test:
	cd vmbench && GOFLAGS=-mod=mod $(GO) test .

# One quick-scale scenario-engine run through the bench binary: two
# cities, fleet churn, a mid-run WAL fsync stall with a duplicate
# saturation storm against a deliberately tight ingest gate, an
# incident-driven evidence spike, and a final-minute evidence-board
# partition. The run hard-fails on acked loss, on any probe diverging
# from the unfaulted baseline, or on a shed investigation, and writes
# the machine-readable SLO report (per-endpoint p50/p99, shed counts)
# to BENCH_scenario.json — CI uploads it as an artifact.
scenario-smoke:
	$(GO) run ./cmd/viewmap-bench -run scenario -scale quick -json BENCH_scenario.json

# The four fault families in isolation: crash-and-recover mid-minute
# (a parked WAL batch must replay), per-city clock skew against the
# server's wall-clock admission window, asymmetric per-endpoint-class
# partitions with a post-heal watch resume, and a 62-minute retention
# horizon probing evicted minutes while a storm lands on hot ones.
# Every family cross-checks bit-for-bit against an unfaulted baseline
# and hard-fails if its fault stops engaging. The same runs ride
# `scenario` (and therefore slo-check) as the report's "families"
# array; this target is the fast standalone drill.
scenario-faults:
	$(GO) run ./cmd/viewmap-bench -run scenario-faults -scale quick

# Per-commit SLO regression gate: a fresh quick-scale scenario run is
# compared against the committed baseline BENCH_scenario.json. The
# probe digests of the main run and of every fault family must equal
# the baseline's (the scenario is deterministic, so a new digest means
# the served verdicts changed). Each endpoint class's candidate p99
# must stay within baseline x 3 + 50 ms (loose enough for CI machine
# noise, hard enough to catch an accidental lock or per-record fsync),
# the run must report zero acked loss, and it must carry no
# scenario-internal SLO violations. When a deliberate change moves the
# verdicts or the latency profile, regenerate the baseline with
# scenario-smoke and commit it. See docs/observability.md.
slo-check:
	$(GO) run ./cmd/viewmap-bench -run scenario -scale quick -json BENCH_scenario.candidate.json
	$(GO) run ./cmd/slocheck -baseline BENCH_scenario.json -candidate BENCH_scenario.candidate.json
	@rm -f BENCH_scenario.candidate.json

# Coverage gate: the full ./internal/... profile must not regress
# below the recorded baseline.
coverage:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit !(t+0 >= b+0) }' \
		|| { echo "coverage regressed below the recorded baseline"; exit 1; }

# Native fuzzing over the untrusted decoders: the anonymous VP wire
# format, the batched-upload framing, the snapshot decoder, the WAL
# replay path (framing scanner + every record-body decoder), the
# minute-segment reader with the graph restore behind it, and the
# evidence delivery body (the one-pass decoder against encoding/json).
# Each target gets FUZZTIME of coverage-guided input generation on top
# of the checked-in seed corpus; -fuzzminimizetime keeps minimization
# of interesting inputs from eating the budget on small machines.
fuzz:
	$(GO) test -fuzz=FuzzProfileUnmarshal -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/vp/
	$(GO) test -fuzz=FuzzSplitBatch -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/vp/
	$(GO) test -fuzz=FuzzSystemLoadFrom -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/server/
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/server/
	$(GO) test -fuzz=FuzzSegmentRead -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/server/
	$(GO) test -fuzz=FuzzDeliverDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=100x -run=NONE ./internal/server/

# Hot-path micro-benchmarks with allocation reporting.
bench-micro:
	$(GO) test -run=NONE -bench='BenchmarkViewmapBuild|BenchmarkTrustRank' -benchtime=10x ./internal/core/
	$(GO) test -run=NONE -bench='BenchmarkIndexedLOS' ./internal/geo/
	$(GO) test -run=NONE -bench='$(EVIDENCE_BENCH)' -benchmem ./internal/reward/ ./internal/blur/
	$(GO) test -run=NONE -bench=. -benchmem ./internal/server/
