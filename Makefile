GO ?= go

.PHONY: build test vet fmt-check race determinism fuzz-smoke bench bench-pairs digest-check scalefull-smoke scale1m-smoke api-freeze loc ci check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# The registry gates: every experiments.Runners entry is byte-identical at
# 1 vs 8 workers and on a repeated run, unchanged by an attached metrics
# plane, identical in metrics snapshot and manifest fingerprint (metrics,
# flood traces, windows) at 1 vs 8 workers, and equal in output to its
# RUNNER_DIGESTS.txt line. Beside them: the event-engine recovery curve
# with its windowed series, the query-centric metrics check, the snapshot
# round trip (a restored network reproduces the fresh build's figures, a
# damaged snapshot fails loudly) and the overload plane (a flash-crowd
# scenario with shedding and breakers is byte-identical at 1 vs 8 workers,
# and a disabled capacity plane is byte-identical to no plane).
# For by-hand use: `make ci` runs every test named here once, under `race`.
determinism:
	$(GO) test -race -run 'TestWorkerCountDoesNotChangeResults|TestMetricsDoNotChangeResults|TestMetricsSnapshotWorkerInvariance|TestRunnerDigests|TestQueryCentricMetricsInert|TestRecoveryWindowWorkerInvariance|TestSnapshotRoundTripMatchesFreshBuild|TestSnapshotLoadFailsLoudlyInEnv' ./internal/experiments/
	$(GO) test -race -run 'TestScenarioDeterministicAndWorkerInvariant|TestCapacityScenarioWorkerInvariant|TestCapacityDisabledIsInert' ./internal/events/

# Short fuzz of the wire-message decoder, the churn-timeline generator,
# the varint posting codec, the snapshot loader, the frontier kernel and
# the wire-level flood under any subset of its gates (both against their
# map-and-slice references), the 64-wide reach-only kernel against
# per-origin frontier rings, posting indexes encoded from interned term
# IDs against the tokenize-and-look-up reference, and the online interval
# engine against the map-based Figures 5–7 analyses: five seconds of
# mutation each must surface no panics, over-reads or contract violations
# (ordering, alternation, determinism, round-trip identity, typed errors on
# damaged bytes, ring/hop/message-count agreement, field-for-field flood
# results, found-mask agreement, byte-equal indexes and holder lists,
# field-for-field intervals, series and transients, and a refused
# backwards time).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeMessage -fuzztime=5s -run '^$$' ./internal/gmsg
	$(GO) test -fuzz=FuzzTimelineConfig -fuzztime=5s -run '^$$' ./internal/churn
	$(GO) test -fuzz=FuzzVarintPostings -fuzztime=5s -run '^$$' ./internal/vpost
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=5s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz=FuzzFrontierVsReference -fuzztime=5s -run '^$$' ./internal/overlay
	$(GO) test -fuzz=FuzzWaveVsFrontier -fuzztime=5s -run '^$$' ./internal/overlay
	$(GO) test -fuzz=FuzzFloodVsNaive -fuzztime=5s -run '^$$' ./internal/gnet
	$(GO) test -fuzz=FuzzIndexFromIDsVsTokenized -fuzztime=5s -run '^$$' ./internal/gnet
	$(GO) test -fuzz=FuzzIntervalEngineVsReference -fuzztime=5s -run '^$$' ./internal/analysis

# The repo's one benchmark (see benchmarks/README.md): every workload's
# end-to-end metrics and per-layer costs, printed as a table.
bench:
	$(GO) run ./benchmarks -workload all -seed 1

# The measurement behind a performance claim (choosing-metrics §8): N
# alternating pairs of the benchmark at BASE and at the working tree on one
# workload, which side runs first alternating, then the noise-aware
# -compare over the two sets of reports (a = BASE, b = working tree).
#
#	make bench-pairs BASE=HEAD~1 WL=flood_miss N=10 [SEED=1]
#
# BASE is built from a git worktree under .bench_build/ (removed on exit);
# reports stay in .bench_build/pairs/ for the record. Not part of `make ci`:
# wall-clock on a shared host is advisory (ROADMAP item 1).
BASE ?= HEAD
WL ?= flood_miss
N ?= 10
SEED ?= 1
bench-pairs:
	@set -e; d=.bench_build/pairs; rm -rf $$d; mkdir -p $$d; \
	git worktree add --detach --force $$d/src $(BASE) >/dev/null; \
	trap "git worktree remove --force $$d/src" EXIT; \
	(cd $$d/src && $(GO) build -o ../base.bin ./benchmarks); \
	$(GO) build -o $$d/head.bin ./benchmarks; \
	a=""; b=""; \
	for i in $$(seq 1 $(N)); do \
		order="base head"; if [ $$((i % 2)) -eq 0 ]; then order="head base"; fi; \
		for side in $$order; do \
			$$d/$$side.bin -workload $(WL) -seed $(SEED) -json $$d/$$side.$$i.json \
				| awk -v tag="pair $$i $$side" '/metric=queries_per_s/ { print tag, $$1, $$2, $$3 }'; \
		done; \
		a="$$a,$$d/base.$$i.json"; b="$$b,$$d/head.$$i.json"; \
	done; \
	$$d/head.bin -compare "$${a#,}" "$${b#,}"

# Refactor gate: the six workloads' sim_digest values at -smoke sizes
# (~4 s) must equal the committed SIM_DIGESTS.txt. A digest is a pure
# function of (code, seed); re-record the file only with a change that is
# meant to move simulation results.
digest-check:
	@$(GO) run ./benchmarks -workload all -seed 1 -smoke | awk ' \
		/sim_digest=/ { w = ""; d = ""; \
			for (i = 1; i <= NF; i++) { \
				if ($$i ~ /^workload=/) w = substr($$i, 10); \
				if ($$i ~ /^sim_digest=/) d = substr($$i, 12) }; \
			print w, d }' | diff - SIM_DIGESTS.txt \
		&& echo "digest-check: ok (6 sim_digests match SIM_DIGESTS.txt)"

# Paper-scale construction gate (~5 min, ~6 GB RSS, 3 GB under TMPDIR):
# TestScaleGate's `full` row builds the ScaleFull catalog + network +
# interned indexes (no trials) and fails unless construction stays inside its
# wall-clock budget, the saved network restores — copying and memory-mapped —
# to the fresh build's index checksum, the copying load takes at most a tenth
# of the build, the mapped load beats the copying one, floods over the
# mapping return results, and a shard-and-spill rebuild of the same
# configuration is byte-identical to the in-heap save. Budgets, shard sizes
# and the RSS ceiling are constants beside the assertions
# (internal/experiments/scalegate_test.go); the `tiny` row runs the same code
# in every `go test`. Run on an otherwise idle box: the load-time gates fail
# under contention.
scalefull-smoke:
	$(GO) test -run 'TestScaleGate$$' -count=1 -v -timeout 30m ./internal/experiments/ -scale-gate full

# Million-peer substrate gate (~3 min, ~3 GB RSS, 2 GB under TMPDIR): the
# `1m` row shard-and-spills a 1,000,000-peer network straight into a snapshot
# (the substrate never fits on the heap — peak memory is one 65,536-peer
# shard plus the shared dictionary), restores it zero-copy through the
# memory mapping, probes it with real floods, and fails if build + load
# exceed the budget, process peak RSS (VmHWM) exceeds the ceiling, or the
# floods come back empty.
scale1m-smoke:
	$(GO) test -run 'TestScaleGate$$' -count=1 -v -timeout 30m ./internal/experiments/ -scale-gate 1m

# Regenerate-and-diff check on the frozen public API surface (API.txt),
# plus the rule that every facade name has a caller (a command, the
# benchmark or an Example), the rule that every function under internal/
# is linked into some binary (the commands or the benchmark) or named with
# a reason in the test's keep-list (TestInternalCodeIsReached), and the
# rule that every field of an internal *Config type has a second value in
# use or a reason in its keep-list (TestConfigKnobsHaveTwoValues).
# Regenerate after an intentional API change with:
#   go test -run TestAPIFrozen -update-api .
# For by-hand use: `make ci` runs all five tests once, under `race`.
api-freeze:
	$(GO) test -run 'TestAPIFrozen|TestFacadeNamesHaveCallers|TestNoInternalImportsOutsideFacade|TestInternalCodeIsReached|TestConfigKnobsHaveTwoValues' .

# Lines of Go outside benchmarks/, non-test and test: the figure the ROADMAP
# anchors and the simplicity PRs quote.
loc:
	@find . -name '*.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | awk ' \
		{ k = ($$0 ~ /_test\.go$$/) ? "test" : "non-test"; \
		  while ((getline line < $$0) > 0) n[k]++; close($$0) } \
		END { printf "non-test %d  test %d  total %d\n", n["non-test"], n["test"], n["non-test"] + n["test"] }'

# The CI gate, each check once: static checks, formatting, a clean build, the
# full suite under the race detector (which includes everything
# `determinism` and `api-freeze` select — the registry gates,
# TestRunnerDigests, TestInternalCodeIsReached and
# TestConfigKnobsHaveTwoValues among them — the recovery / saturation / query-centric
# claims and TestScaleGate's tiny row), the decoder,
# churn-timeline, posting-codec, snapshot-loader, frontier-kernel,
# wave-vs-frontier (FuzzWaveVsFrontier), flood-vs-naive
# (FuzzFloodVsNaive), index-from-IDs (FuzzIndexFromIDsVsTokenized) and
# interval-engine (FuzzIntervalEngineVsReference) fuzz smokes, the
# sim-digest refactor
# gate, the paper-scale construction gate (with the sharded byte-identity
# check) and the million-peer sharded-construction gate.
ci: vet fmt-check build race fuzz-smoke digest-check scalefull-smoke scale1m-smoke

check: ci

clean:
	$(GO) clean ./...
	rm -f out/*.qcsnap
