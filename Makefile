GO ?= go

.PHONY: build test vet fmt-check race determinism fuzz-smoke bench bench-pairs digest-check recovery-smoke saturation-smoke querycentric-smoke scalefull-smoke scale1m-smoke api-freeze ci check clean

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

# Byte-identical results at 1 vs 8 workers across the experiment runners,
# including the ChurnRepair repair timeline (the golden determinism check
# on overlay maintenance) and the event-engine recovery curve with its
# windowed metric series, plus the observability-plane contract: attaching
# metrics never changes results, and enabled-metrics snapshots/manifest
# fingerprints are identical at any worker count. The snapshot tests extend
# the gate to persistence: a restored network must reproduce the fresh
# build's figures byte for byte, and a damaged snapshot must fail loudly.
# The capacity tests extend it to the overload plane: a flash-crowd
# scenario with shedding and breakers enabled is byte-identical at 1 vs 8
# workers, and a disabled capacity plane is byte-identical to no plane.
determinism:
	$(GO) test -race -run 'TestWorkerCountDoesNotChangeResults|TestMetricsDoNotChangeResults|TestQueryCentricMetricsInert|TestMetricsSnapshotWorkerInvariance|TestRecoveryWindowWorkerInvariance|TestSnapshotRoundTripMatchesFreshBuild|TestSnapshotLoadFailsLoudlyInEnv' ./internal/experiments/
	$(GO) test -race -run 'TestScenarioDeterministicAndWorkerInvariant|TestCapacityScenarioWorkerInvariant|TestCapacityDisabledIsInert' ./internal/events/

# Short fuzz of the wire-message decoder, the churn-timeline generator,
# the varint posting codec, the snapshot loader, the frontier kernel and
# the wire-level flood under any subset of its gates (both against their
# map-and-slice references): five seconds of mutation each must surface no
# panics, over-reads or contract violations (ordering, alternation,
# determinism, round-trip identity, typed errors on damaged bytes,
# ring/hop/message-count agreement, field-for-field flood results).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeMessage -fuzztime=5s -run '^$$' ./internal/gmsg
	$(GO) test -fuzz=FuzzTimelineConfig -fuzztime=5s -run '^$$' ./internal/churn
	$(GO) test -fuzz=FuzzVarintPostings -fuzztime=5s -run '^$$' ./internal/vpost
	$(GO) test -fuzz=FuzzSnapshotLoad -fuzztime=5s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz=FuzzFrontierVsReference -fuzztime=5s -run '^$$' ./internal/overlay
	$(GO) test -fuzz=FuzzFloodVsNaive -fuzztime=5s -run '^$$' ./internal/gnet

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

# Recovery smoke: a tiny-scale correlated-crash run through the CLI must end
# with the repaired overlay no worse than the unrepaired one.
recovery-smoke:
	@$(GO) run ./cmd/qc-sim -mode recovery -scale tiny | awk ' \
		$$1 == "#" && $$2 == "final_success" { rep = $$3; norep = $$4 } \
		END { \
			if (rep == "" || norep == "") { print "recovery-smoke: final_success row missing"; exit 1 }; \
			if (rep + 0 < norep + 0) { printf "recovery-smoke: FAIL repaired %s < no-repair %s\n", rep, norep; exit 1 }; \
			printf "recovery-smoke: ok (repaired %s >= no-repair %s)\n", rep, norep }'

# Saturation smoke: the tiny-scale flash-crowd sweep through the CLI must
# show TTL-aware shedding retaining at least 2x drop-tail's success at the
# highest swept load (loads ascend, so each arm's last table row is its
# peak). The companion inertness half of the contract — disabled-capacity
# runs byte-identical to a build without the plane — is the race-checked
# test alongside it (also part of `make determinism`).
saturation-smoke:
	@$(GO) run ./cmd/qc-sim -mode saturation -scale tiny | awk ' \
		$$1 == "ttl" { t = $$3 } \
		$$1 == "drop-tail" { d = $$3 } \
		END { \
			if (t == "" || d == "") { print "saturation-smoke: ttl or drop-tail rows missing"; exit 1 }; \
			if (t + 0 < 2 * d) { printf "saturation-smoke: FAIL ttl peak success %s < 2x drop-tail %s\n", t, d; exit 1 }; \
			printf "saturation-smoke: ok (ttl peak success %s >= 2x drop-tail %s)\n", t, d }'
	$(GO) test -run 'TestCapacityDisabledIsInert' ./internal/events/

# Query-centric smoke: the tiny-scale five-arm head-to-head through the
# CLI must show the adaptive overlay recovering at least 2x static
# flooding's TTL-3 success at no extra message cost — the paper's
# constructive claim as a CI gate. The companion determinism half of the
# contract — the full adaptation loop byte-identical at 1 vs 8 workers
# and metrics-attach changing nothing — runs as the race-checked tests
# alongside it (the worker-invariance leg is also part of
# `make determinism`).
querycentric-smoke:
	@$(GO) run ./cmd/qc-sim -mode query-centric -scale tiny | awk ' \
		$$1 == "static-flood" { ss = $$2; sm = $$3 } \
		$$1 == "adaptive" { as = $$2; am = $$3 } \
		END { \
			if (ss == "" || as == "") { print "querycentric-smoke: static-flood or adaptive rows missing"; exit 1 }; \
			if (as + 0 < 2 * ss) { printf "querycentric-smoke: FAIL adaptive success %s < 2x static %s\n", as, ss; exit 1 }; \
			if (am + 0 > sm + 0) { printf "querycentric-smoke: FAIL adaptive msgs/query %s > static %s\n", am, sm; exit 1 }; \
			printf "querycentric-smoke: ok (success %s >= 2x static %s at %s <= %s msgs/query)\n", as, ss, am, sm }'
	$(GO) test -race -run 'TestQueryCentricMetricsInert|TestWorkerInvariance' ./internal/experiments/ ./internal/adaptive/

# Paper-scale construction smoke: build the ScaleFull catalog + network +
# interned indexes (no trials) under a wall-clock budget so
# regressions that push 37k-peer / 8.1M-object construction out of a CI-able
# budget are caught without running full experiments. The budget leaves
# ~2x headroom over the measured single-CPU build (see BENCH_index_full.json).
# The snapshot leg saves the built network, loads it back — copying and
# memory-mapped — and fails unless the restored checksums match, the
# copying load takes at most a tenth of the build, and the mapped load
# beats the copying one. The -sharded leg reruns the whole construction
# through the shard-and-spill pipeline and fails unless its file is
# byte-identical to the in-heap save (the paper-scale identity gate).
scalefull-smoke:
	$(GO) run ./cmd/qc-bench -index-scale full \
		-budget 10m -sharded -shard-size 8192 \
		-snapshot-file out/net_full.qcsnap -o out/BENCH_index_full.json

# Million-peer substrate smoke: shard-and-spill a 1,000,000-peer network
# straight into a snapshot (the substrate never fits on the heap — peak
# memory is one 65,536-peer shard plus the shared dictionary), restore it
# zero-copy through the memory mapping, probe it with real floods, and
# fail if build+load exceed the wall-clock budget or process peak RSS
# (VmHWM) exceeds the ceiling. Budget and ceiling leave ~2x headroom over
# the measured single-CPU run (see BENCH_index_1m.json).
scale1m-smoke:
	$(GO) run ./cmd/qc-bench -sharded-only -index-scale 1m -shard-size 65536 \
		-budget 6m -rss-ceiling-mb 6144 \
		-snapshot-file out/net_1m.qcsnap -o out/BENCH_index_1m.json

# Regenerate-and-diff check on the frozen public API surface (API.txt).
# Regenerate after an intentional API change with:
#   go test -run TestAPIFrozen -update-api .
api-freeze:
	$(GO) test -run 'TestAPIFrozen|TestNoInternalImportsOutsideFacade' .

# The CI gate: static checks, formatting, a clean build, the full suite
# under the race detector, the workers=8 determinism regression, the
# decoder, churn-timeline, posting-codec, snapshot-loader
# and frontier-kernel fuzz smokes, the fault-burst recovery smoke, the
# flash-crowd saturation smoke, the query-centric adaptive-overlay smoke,
# the API freeze, the sim-digest refactor gate, the paper-scale
# construction smoke (with the sharded byte-identity gate) and the
# million-peer sharded-construction smoke.
ci: vet fmt-check build race determinism fuzz-smoke recovery-smoke saturation-smoke querycentric-smoke api-freeze digest-check scalefull-smoke scale1m-smoke

check: ci

clean:
	$(GO) clean ./...
	rm -f out/*.qcsnap
