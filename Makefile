# Standard entry points for building and verifying the CMAP reproduction.
#
#   make build      compile every package and command
#   make test       fast, deterministic tier (go test -short) — CI default
#   make test-full  full-fidelity test scale (slower)
#   make race       race-detector pass over the concurrent packages
#   make bench      benchmark trajectory, one iteration per benchmark
#   make check      build + test, the tier-1 gate
#   make vet        static analysis
#   make golden     golden-trace regression tier (bit-exact behaviour pin:
#                   the flow traces, the pair sweeps and predicted pair
#                   figures, the calibration, Figures 14 and 17-19 and
#                   the screen grid, and shared rows against fresh builds)
#   make alloc-check  allocation-regression gate (0 allocs/frame in steady state,
#                   0 allocs per movement epoch, at most one list per
#                   stale delivery row read after it, 0 allocs over a
#                   steady-state window for every conformance arm)
#   make bench-json machine-readable scaling benchmarks, five runs each
#                   (median ns/op + quartiles) → BENCH_<sha>.json
#   make profile    CPU+heap pprof of the scaling benchmarks → cpu.pprof/mem.pprof
#   make bench-smoke  one-iteration steady-state benchmark (compile-level perf canary)
#   make docs-check documentation gate: gofmt diff, package-comment
#                   guard over internal/, markdown link check, and no
#                   backticked identifier in README/ARCHITECTURE that
#                   no .go file contains
#   make fuzz-smoke 5 s of each fuzzer in FUZZERS beyond its seed corpus
#                   (scheduler agenda, CMAP defer table, grid
#                   re-bucketing, delivery-list patching, station attach
#                   order against the medium's fan-out, the radio's
#                   interference path against its one-tier reference,
#                   the shadowing screen against Loss, the mobility
#                   spec parser, every layer's RestoreState through
#                   damaged re-stamped checkpoints, the arm spec
#                   parser and the -arms list parser, frame decoding,
#                   the checkpoint envelope loader, the traffic spec
#                   parser and rate bounds)
#   make loc        non-test Go lines outside bench/, the size ROADMAP tracks
#   make loc-pkgs   the same lines per package directory, largest first
#   make conformance  the shared MAC conformance suite (every registered
#                   arm: allocation, determinism, worker-equivalence and
#                   conservation contracts) under the race detector
#   make shard-conformance  the sharded-engine matrix under the race
#                   detector: one-shard engine bit-identity vs serial
#                   (internal/shard), determinism and figure-level
#                   equivalence at 2–4 shards, the latter also
#                   end-to-end through experiments
#   make bench-pair PARENT=<rev> [WORKLOAD=scale_sparse] [ROUNDS=5]
#                   paired runs of bash bench/run.sh on PARENT (exported
#                   into .bench_pair/) and the working tree, alternating
#                   which side runs first; prints each round side by
#                   side, then each end-to-end metric's parent quartiles,
#                   new median and median ratio
#   make bench-guard  compare the two newest checked-in BENCH_*.json and
#                   fail on >20% ns/op regression in SaturatedSteadyState,
#                   IncrementalUpdate or EpochUpdate whose quartiles
#                   also clear the older file's (BENCHDIFF_SKIP=1
#                   accepts a deliberate one)
#   make mobility-conformance  the mobility tier: mobility unit tests,
#                   every arm's mobile determinism/worker-equivalence/
#                   conservation contracts, the lazy-row-vs-rebuild
#                   medium equivalence (whole epochs and partial
#                   batches) with the audibility-predicate property it
#                   leans on, the lazy-row contract, the mobile
#                   golden traces, the staleness-sweep properties and
#                   the mobile checkpoint/resume bit-identity cases
#   make checkpoint-conformance  the checkpoint/resume bit-identity
#                   matrix (every golden scenario × every registered MAC
#                   arm × shards 1/2/4: resume-at-midpoint must equal an
#                   uninterrupted run in results and checkpoint bytes)
#                   plus the envelope damage table and the scheduler
#                   round-trip unit tier
#   make cover      standalone coverage profile over every package
#                   (coverage.out) with hard floors on internal/analytic,
#                   internal/mac and internal/mobility, read from that one run
#   make ci         the full gate: vet + one race short pass over the module
#                   that also writes coverage.out and feeds the coverage
#                   floors + alloc gate + golden tier + the experiments
#                   lines of shard, checkpoint and mobility conformance
#                   (the race pass already ran the rest of them and all
#                   of make conformance) + bench guard + bench smoke
#                   + docs check + fuzz smoke; the module is tested once,
#                   and no command in it runs twice for the same purpose

GO ?= go

# Every go test invocation carries an explicit -timeout so a hung
# simulation (e.g. a scheduler that stops draining after a bad restore)
# fails the gate loudly instead of stalling CI until the runner's own
# cutoff.
TEST_TIMEOUT ?= 10m

# Coverage floor for the analytic oracle: the cross-validation tier leans
# on it, so untested solver/extractor branches are a correctness risk.
ANALYTIC_COVER_FLOOR ?= 85

# Coverage floor for the MAC arm registry: every experiment and command
# resolves protocols through it, so its lookup/family/error paths must
# stay exercised.
MAC_COVER_FLOOR ?= 85

# Coverage floor for the mobility subsystem: trajectories feed the
# incremental medium and the checkpoint codec, so untested movement or
# shadowing branches silently skew every mobile figure.
MOBILITY_COVER_FLOOR ?= 85

.PHONY: build test test-full race bench check vet golden alloc-check bench-json profile bench-smoke docs-check fuzz-smoke loc loc-pkgs conformance shard-conformance checkpoint-conformance mobility-conformance bench-guard bench-pair cover ci

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) -short ./...

test-full:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -timeout $(TEST_TIMEOUT) -race -short ./internal/runner ./internal/experiments ./internal/core ./internal/sim

bench:
	$(GO) test -timeout $(TEST_TIMEOUT) -run XXX -bench . -benchtime 1x ./...

check: build test

vet:
	$(GO) vet ./...

golden:
	$(GO) test -timeout $(TEST_TIMEOUT) -run 'TestGolden|TestSparseDense|TestSharedTestbed' ./internal/experiments

alloc-check:
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'ZeroAllocs' -v ./internal/medium ./internal/traffic
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'TestConformance/.*/ZeroAllocs' -v ./internal/mac/conformance

bench-json:
	$(GO) run ./cmd/cmapbench -benchjson

profile:
	$(GO) run ./cmd/cmapbench -benchjson -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with: go tool pprof cpu.pprof   (or mem.pprof)"

# One iteration of the steady-state benchmark: catches a perf-path
# regression that changes the compile-level shape of the hot path (e.g.
# table construction leaking onto it) without paying for a full
# benchmark run.
bench-smoke:
	$(GO) test -timeout $(TEST_TIMEOUT) -run XXX -bench '^BenchmarkScale$$/^SaturatedSteadyState$$' -benchtime 1x ./internal/experiments

# Documentation gate: formatting drift, a package comment on every
# internal/ package (doc.go), no dead relative links in the top-level
# markdown, and no backticked identifier in README.md or
# ARCHITECTURE.md that no .go file contains. (Static analysis is `make vet`, which `make ci`
# runs first.)
docs-check:
	@fmtdiff="$$(gofmt -l .)"; if [ -n "$$fmtdiff" ]; then \
		echo "gofmt drift in:"; echo "$$fmtdiff"; exit 1; fi
	$(GO) run ./cmd/docscheck README.md ARCHITECTURE.md ROADMAP.md examples/README.md

# Short randomized fuzzing beyond the seed corpora: a few seconds per
# fuzzer is enough to catch a freshly introduced ordering or expiry bug
# without turning CI into a fuzzing farm.
FUZZERS = internal/sim:FuzzScheduler internal/core:FuzzDeferTable \
	internal/geo:FuzzGridRebucket internal/medium:FuzzDeliveryPatch \
	internal/medium:FuzzAttachOrder internal/phy:FuzzInterferencePath \
	internal/radio:FuzzScreenNeverRefusesAudible internal/mobility:FuzzParseSpec \
	internal/experiments:FuzzRestoreState internal/experiments:FuzzParseArms \
	internal/mac:FuzzLookup internal/frame:FuzzFrameUnmarshal \
	internal/checkpoint:FuzzLoad internal/traffic:FuzzTrafficSpec

fuzz-smoke:
	@for f in $(FUZZERS); do \
		echo "fuzz $$f"; \
		$(GO) test -timeout $(TEST_TIMEOUT) -run='^$$' -fuzz="$${f##*:}" -fuzztime=5s "./$${f%%:*}" || exit 1; \
	done

# Non-test Go lines outside bench/: the code-size number ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' | xargs cat | wc -l

# The same lines per package directory, largest first: the breakdown a
# ROADMAP re-anchor quotes next to the total.
loc-pkgs:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^\\./", "", d); n[d] += $$1 } \
		END { for (d in n) print n[d], d }' | sort -k1,1nr -k2

# The shared MAC conformance suite under the race detector: every
# registered arm's allocation (skipped under race), determinism,
# worker-equivalence and backlog-conservation contracts, plus the
# registry round-trip and topology sanity bounds.
conformance:
	$(GO) test -timeout $(TEST_TIMEOUT) -race -count=1 ./internal/mac/conformance

# The sharded engine's conformance matrix under the race detector:
# the one-shard engine bit-identical to the serial engine (saturated
# and Poisson sources), determinism at fixed shard counts, figure-level
# equivalence at 2 and 4 shards, plus the multi-shard contracts through
# experiments.FlowSimConfig.Shards (where 0 and 1 are the serial engine).
SHARD_EXPERIMENTS = $(GO) test -timeout $(TEST_TIMEOUT) -race -count=1 -run 'TestSharded' ./internal/experiments
shard-conformance:
	$(GO) test -timeout $(TEST_TIMEOUT) -race -count=1 -run 'TestShard|TestPartition|TestEngine' ./internal/shard ./internal/geo
	$(SHARD_EXPERIMENTS)

# Bench regression guard: the two most recently committed BENCH_*.json
# are diffed; >20% median ns/op growth in SaturatedSteadyState,
# IncrementalUpdate or EpochUpdate fails the gate when the new lower
# quartile is also above the old upper one (files from before the
# quartiles: the 20% alone) — unless the two files' host stamps differ
# (CPU model, num_cpu, GOMAXPROCS), which is reported but cannot fail.
# A guarded family present in the older file and missing from the newer
# fails on any host. BENCHDIFF_SKIP=1 accepts a deliberate regression
# (say why in the PR).
bench-guard:
	$(GO) run ./cmd/benchdiff -auto

# Paired end-to-end runs against a parent revision (cmd/benchpair):
# round i runs seed i in both trees, the parent first in odd rounds.
# It is the measurement behind a speed claim; nothing in ci runs it.
WORKLOAD ?= scale_sparse
ROUNDS ?= 5
bench-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-pair PARENT=<rev> [WORKLOAD=name] [ROUNDS=n]"; exit 2; }
	$(GO) run ./cmd/benchpair -parent $(PARENT) -workload $(WORKLOAD) -rounds $(ROUNDS)

# The mobility tier: the mobility package's own unit tests (models,
# channel, checkpoint codec, and bitwise Loss reciprocity of every
# range-bounded model and of the shadowing screen), every registered
# arm's mobile determinism / worker-equivalence /
# conservation contracts under the race detector, the
# lazy-row-vs-rebuild delivery-list equivalence (every row per
# epoch, and partial batches against both oracles and the
# one-move-at-a-time path) with the invariant it leans on — the
# guard-banded audibility predicate against its literal form — the
# lazy-row contract (a batch evaluates nothing, a row is built on its
# first read and only then, a frame builds only its attended part, an
# empty batch is a no-op), every frame's receivers under random batches,
# attaches and full reads against a from-scratch build, the mobile golden
# traces and the churn-shaped mobile golden, the staleness-sweep figure
# properties, the
# churn × mobility interplay, and the mobile checkpoint/resume
# bit-identity cases.
MOBILITY_EXPERIMENTS = $(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'TestGoldenMobileTraces|TestGoldenMobileChurn|TestStalenessSweep|TestMobilityChurnInterplay|TestCheckpointResumeBitIdentical/.*mobile' ./internal/experiments
mobility-conformance:
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 ./internal/mobility
	$(GO) test -timeout $(TEST_TIMEOUT) -race -count=1 -run 'TestConformance/.*/Mobile' ./internal/mac/conformance
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'TestIncrementalMatchesRebuild|TestPartialBatchMatchesRebuild|TestFloorMatchesLiteral|TestScreenRefusesMost|TestLazyRows|TestEmptyBatchIsNoOp|TestFanoutMatchesRebuildUnderMotion' ./internal/medium
	$(MOBILITY_EXPERIMENTS)

# Checkpoint/resume bit-identity: checkpoint-at-midpoint-then-resume
# must match an uninterrupted run in both FlowResults (IEEE-754 bit
# patterns) and end-of-run checkpoint bytes, across every golden
# scenario × every registered MAC arm × shards 1/2/4, and the lazily
# derived config hash / owner index must not depend on when they are
# first read; every layer's completeness and export → restore → export
# round-trip tests, and seq damage through Resume. The second line
# is the envelope damage table (truncation/corruption/version/config
# typed errors) and the Map/Set codecs, the third the scheduler, timer
# and RNG round-trip and seq damage unit tier.
CHECKPOINT_EXPERIMENTS = $(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'TestCheckpointResumeBitIdentical|TestCheckpointConfigHashGuard|TestState|TestResumeRejectsBadSeqs' ./internal/experiments
checkpoint-conformance:
	$(CHECKPOINT_EXPERIMENTS)
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 ./internal/checkpoint
	$(GO) test -timeout $(TEST_TIMEOUT) -count=1 -run 'TestScheduler|TestRNGState|TestTimer' ./internal/sim

# One whole-module test pass ($(1) = extra go test flags) that writes
# coverage.out and enforces hard floors on the analytic oracle (its
# numbers gate the cross-validation tier), the MAC arm registry (every
# experiment resolves protocols through it) and the mobility subsystem.
# The floors read the per-package percentages that pass prints; a
# package missing from it fails closed.
define test-with-cover-floors
@out=$$($(GO) test -timeout $(TEST_TIMEOUT) $(1) -short -coverprofile=coverage.out ./...) || { echo "$$out"; exit 1; }; \
echo "$$out"; \
$(GO) tool cover -func=coverage.out | tail -1; \
for spec in internal/analytic:$(ANALYTIC_COVER_FLOOR) internal/mac:$(MAC_COVER_FLOOR) internal/mobility:$(MOBILITY_COVER_FLOOR); do \
	pkg=$${spec%%:*}; floor=$${spec##*:}; \
	pct=$$(echo "$$out" | awk -v p="repro/$$pkg" '$$2 == p { sub("%", "", $$5); print $$5 }'); \
	echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
	awk "BEGIN{exit !($$pct >= $$floor)}" || { echo "$$pkg coverage $$pct% below floor $$floor%"; exit 1; }; \
done
endef

# Standalone coverage profile and floors, without the race detector.
cover:
	$(call test-with-cover-floors,)

# The module is tested once here: the race short pass is also the
# coverage run the floors read. (The ZeroAllocs tests skip under -race;
# alloc-check runs them.) Of the conformance targets ci runs only the
# experiments lines: internal/mac/conformance, internal/shard,
# internal/geo, internal/mobility, internal/medium, internal/checkpoint
# and internal/sim never call testing.Short, so the race short pass
# already ran every test their other lines select, under -race.
ci: build vet
	$(call test-with-cover-floors,-race)
	$(MAKE) alloc-check
	$(MAKE) golden
	$(SHARD_EXPERIMENTS)
	$(CHECKPOINT_EXPERIMENTS)
	$(MOBILITY_EXPERIMENTS)
	$(MAKE) bench-guard
	$(MAKE) bench-smoke
	$(MAKE) docs-check
	$(MAKE) fuzz-smoke
