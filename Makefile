GO ?= go

.PHONY: build test vet fmt-check race determinism fuzz-smoke bench bench-pairs digest-check results-check scalefull-smoke scale1m-smoke api-freeze loc ci check clean

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
# 1 vs 8 workers, unchanged by an attached metrics plane (a second,
# independent run), identical in metrics snapshot and manifest fingerprint
# (metrics, flood traces, windows) at 1 vs 8 workers, and equal in output
# to its RUNNER_DIGESTS.txt line. Beside them: the snapshot round trip (a restored network reproduces the fresh build's figures, a
# damaged snapshot fails every consumer of the population loudly), restored
# networks under mutation (a scenario with churn, repair, breakers and loss
# over a population restore equals the heap build's, and mutating one
# restore leaves every other restore's floods unchanged) and the overload
# plane (a flash-crowd
# scenario with shedding and breakers is byte-identical at 1 vs 8 workers,
# and a disabled capacity plane is byte-identical to no plane), the
# keepalive's value path (the addresses of the peers Pongs and X-Try hints
# hand over equal the encoded descriptors' and formatted headers' after
# churn, repair, loss and shedding, on flat and two-tier overlays) and the
# QRP route matrix (every holder's pass bit equals the match of the table
# its library rebuilds, on flat and two-tier overlays at 12 and 16 bits,
# after AddFile and after DisableQRP and EnableQRP), and the 64-wide
# reach-only kernel behind Figure 8 (TestWaveMatchesFrontier: every found
# mask equals the per-origin Frontier rings' on flat, NewGnutella and
# hand-marked two-tier graphs; TestSuccessRateNMatchesReference: the
# batched success rate equals the per-trial fold at 1 and 8 workers), and
# the sharded build's pipelined placement pass (TestShardedByteIdentical:
# BuildSharded writes Save's bytes at every shard size;
# TestShardedWorkerInvariant: and at 1, 2 and 8 workers).
# For by-hand use: `make ci` runs every test named here once, under `race`.
determinism:
	$(GO) test -race -run 'TestWorkerCountDoesNotChangeResults|TestMetricsDoNotChangeResults|TestMetricsSnapshotWorkerInvariance|TestRunnerDigests|TestSnapshotRoundTripMatchesFreshBuild|TestSnapshotLoadFailsLoudlyInEnv' ./internal/experiments/
	$(GO) test -race -run 'TestScenarioDeterministicAndWorkerInvariant|TestCapacityScenarioWorkerInvariant|TestCapacityDisabledIsInert' ./internal/events/
	$(GO) test -race -run 'TestRestoredNetworksUnderMutation|TestShardedByteIdentical|TestShardedWorkerInvariant' ./internal/snapshot/
	$(GO) test -race -run 'TestKeepaliveMatchesWireReference|TestQRPMatrixMatchesWireTables' ./internal/gnet/
	$(GO) test -race -run 'TestWaveMatchesFrontier' ./internal/overlay/
	$(GO) test -race -run 'TestSuccessRateNMatchesReference' ./internal/search/

# Short fuzz of the wire-message decoder, the churn-timeline generator,
# the varint posting codec, the snapshot loaders (each input loaded as
# written and again resealed — every section digest and the directory hash
# recomputed — so mutations reach the decoders behind the digests, both
# against the sequential verify-then-decode reference), the frontier kernel and
# the wire-level flood under any subset of its gates (both against their
# map-and-slice references), the 64-wide reach-only kernel against
# per-origin frontier rings, posting indexes encoded from interned term
# IDs against the tokenize-and-look-up reference, the online interval
# engine against the map-based Figures 5–7 analyses, the
# X-Try-Ultrapeers header codec against its split-and-Sprintf reference,
# the match path's posting kernel (inline one-byte gap decode) against
# vpost.Cursor on clean and damaged lists, the DMAP decoder (bounded
# nesting, exact re-encoding) and the three trace readers (write and read
# back equal): five seconds of mutation each,
# thirteen targets, must surface no panics,
# over-reads or contract violations (ordering, alternation, determinism,
# round-trip identity, typed errors on damaged bytes, ring/hop/message-count
# agreement, field-for-field flood results, found-mask agreement, byte-equal
# indexes and holder lists, field-for-field intervals, series and
# transients, a refused backwards time, and equal parsed addresses,
# parse errors and formatted headers, and equal survivors and postings
# decoded). Minimization is capped at one
# execution per new input (-fuzzminimizetime=1x): left at its default it
# can take the whole five seconds, as it did for FuzzSnapshotLoad, which
# then ran ~160 inputs instead of mutating for the rest of its time.
# Each target gets a fresh, empty fuzz cache (-test.fuzzcachedir), so only
# its f.Add seeds and committed testdata/fuzz inputs replay before it
# mutates: the shared cache under `go env GOCACHE` grows every run, and
# once replaying it outlasted the five seconds the target never fuzzed.
# A target that prints no `execs:` line fails the smoke for that reason.
FUZZ_TARGETS = \
	FuzzDecodeMessage:./internal/gmsg \
	FuzzTimelineConfig:./internal/churn \
	FuzzVarintPostings:./internal/vpost \
	FuzzSnapshotLoad:./internal/snapshot \
	FuzzFrontierVsReference:./internal/overlay \
	FuzzWaveVsFrontier:./internal/overlay \
	FuzzFloodVsNaive:./internal/gnet \
	FuzzIndexFromIDsVsTokenized:./internal/gnet \
	FuzzTryUltrapeers:./internal/gnet \
	FuzzIntersectVsCursor:./internal/gnet \
	FuzzIntervalEngineVsReference:./internal/analysis \
	FuzzDmapDecode:./internal/dmap \
	FuzzReadTrace:./internal/trace
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; d=$$(mktemp -d); \
		echo "$(GO) test -fuzz=$$name $$pkg"; \
		st=0; out=$$($(GO) test -fuzztime=5s -fuzzminimizetime=1x -run '^$$' -fuzz="^$$name\$$" $$pkg \
			-args -test.fuzzcachedir=$$d 2>&1) || st=$$?; \
		rm -rf "$$d"; echo "$$out"; \
		if [ $$st -ne 0 ]; then exit $$st; fi; \
		if ! echo "$$out" | grep -q 'execs:'; then \
			echo "fuzz-smoke: $$name printed no execs: line (it never mutated)"; exit 1; fi; \
	done

# The repo's one benchmark (see benchmarks/README.md): every workload's
# end-to-end metrics and per-layer costs, printed as a table.
bench:
	$(GO) run ./benchmarks -workload all -seed 1

# The measurement behind a performance claim (choosing-metrics §8): N
# alternating pairs of the benchmark at BASE and at the working tree on one
# workload, which side runs first alternating, then the noise-aware
# -compare over the two sets of reports (a = BASE, b = working tree).
# Every pair prints each end-to-end metric of both sides (setup_s,
# queries_per_s, query_p50_us, heap_after_setup_mib, failed_frac), so a
# claim on any of them can be read pair by pair.
#
#	make bench-pairs BASE=HEAD~1 WL=flood_miss N=10 [SEED=1]
#
# BASE is exported with `git archive` into .bench_build/pairs/src and built
# there without VCS stamping (its reports say commit=unknown rather than the
# working tree's revision); the sources are removed once both binaries are
# built. Reports stay in .bench_build/pairs/ for the record. Not part of
# `make ci`: wall-clock on a shared host is advisory (ROADMAP item 1).
BASE ?= HEAD
WL ?= flood_miss
N ?= 10
SEED ?= 1
bench-pairs:
	@set -e; d=.bench_build/pairs; rm -rf $$d; mkdir -p $$d/src; \
	git archive $(BASE) | tar -x -C $$d/src; \
	(cd $$d/src && $(GO) build -buildvcs=false -o ../base.bin ./benchmarks); \
	rm -rf $$d/src; \
	$(GO) build -o $$d/head.bin ./benchmarks; \
	a=""; b=""; \
	for i in $$(seq 1 $(N)); do \
		order="base head"; if [ $$((i % 2)) -eq 0 ]; then order="head base"; fi; \
		for side in $$order; do \
			$$d/$$side.bin -workload $(WL) -seed $(SEED) -json $$d/$$side.$$i.json \
				| awk -v tag="pair $$i $$side" '/ metric=/ && !/ layer=/ { print tag, $$2, $$3, $$4 }'; \
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

# The published results gate (~6 s): regenerates every figure at the
# EXPERIMENTS.md settings into a temporary directory and fails unless each
# .dat file and summary.txt, in either tree, is byte-equal to the committed
# out/. Refresh out/ only with a change meant to move results, by
# `go run ./cmd/qc-figures -scale default -seed 42 -out out`.
results-check:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/qc-figures -scale default -seed 42 -out $$d >/dev/null; \
	fail=0; \
	for f in $$d/*.dat $$d/summary.txt out/*.dat; do \
		b=$$(basename $$f); cmp $$d/$$b out/$$b || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "results-check: out/ differs from the code's output"; exit 1; fi; \
	echo "results-check: ok (out/*.dat and out/summary.txt match qc-figures)"

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
# claims, TestScaleGate's tiny row, TestOverlappedLoadMatchesSequential,
# the snapshot loaders' error contract, TestRestoredNetworksUnderMutation,
# the copy-on-write reference for restored networks, and
# TestKeepaliveMatchesWireReference, the encoded reference for the
# keepalive's Pongs and X-Try hints, and TestQRPMatrixMatchesWireTables,
# the rebuilt-table reference for the QRP route matrix, and
# TestWaveMatchesFrontier and TestSuccessRateNMatchesReference, the
# Frontier and per-trial references for Figure 8's wave kernel, and
# TestShardedByteIdentical and TestShardedWorkerInvariant, Save's bytes as
# the reference for the sharded build at every shard size and worker
# count), the decoder,
# churn-timeline, posting-codec, snapshot-loader (with its resealed-input
# arm), frontier-kernel,
# wave-vs-frontier (FuzzWaveVsFrontier), flood-vs-naive
# (FuzzFloodVsNaive), index-from-IDs (FuzzIndexFromIDsVsTokenized),
# interval-engine (FuzzIntervalEngineVsReference), X-Try codec
# (FuzzTryUltrapeers), posting-kernel (FuzzIntersectVsCursor), DMAP
# (FuzzDmapDecode) and trace-reader (FuzzReadTrace) fuzz smokes (five
# seconds each from a fresh fuzz cache, minimization capped at one
# execution per input so the time goes to mutation), the
# sim-digest refactor
# gate, the published-results gate (out/ against qc-figures), the
# paper-scale construction gate (with the sharded byte-identity check) and
# the million-peer sharded-construction gate.
ci: vet fmt-check build race fuzz-smoke digest-check results-check scalefull-smoke scale1m-smoke

check: ci

clean:
	$(GO) clean ./...
	rm -f out/*.qcsnap
