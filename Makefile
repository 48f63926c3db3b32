# Build/test entry points. Tier-1 is the gate every change must keep green
# (see ROADMAP.md): build, the no-host-clock check on the engine, the size
# ceilings on the conduit, the verbs model, the OpenSHMEM runtime and all
# packages, the full test suite, the full suite again under the
# race detector (both under a 5-minute timeout, so a hang fails in minutes, not
# go test's default ten), the determinism contracts repeated
# across GOMAXPROCS, a fast data-plane-integrity smoke, the benchmark
# module's own vet + smoke test, the chaos_traffic benchmark workload on three
# seeds, and the perf trajectory's virtual numbers checked against the
# committed BENCH_*.json.
# Tier-2 adds vet, the fixed-seed chaos soaks (connection lifecycle, PE
# failure, control plane, resource churn, data-plane integrity, combined) and
# the same soaks swept over 32 more seeds.

GO ?= go

# Fixed seed for the tier-2 soak so CI runs are reproducible; override with
# CHAOS_SEED=<seed> make soak (failures print the seed to replay).
CHAOS_SEED ?= 1786034998553156286

.PHONY: all tier1 tier2 build no-wallclock loc-check test vet race determinism soak soak-sweep smoke incident-smoke rail-smoke footprint-smoke bench-smoke chaos-smoke bench-check fuzz-smoke loc trace-demo bench clean

all: tier1

tier1: build no-wallclock loc-check test race determinism smoke incident-smoke rail-smoke footprint-smoke bench-smoke chaos-smoke bench-check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 5m ./...

tier2: tier1 vet soak soak-sweep

vet:
	$(GO) vet ./...

# The protocol engine keeps no host clock: every timeout, back-off and
# detector period is an event on the job's virtual-time queue
# (internal/vclock.Sched), so no recovery outcome can depend on how fast the
# host is. The wall clock belongs to the launcher (watchdog, Result.Wall, the
# memstats sampler) and to obs (engine cost) only.
ENGINE_PKGS = gasnet ib pmi shmem vclock

no-wallclock:
	@for p in $(ENGINE_PKGS); do \
		for f in $$(ls internal/$$p/*.go | grep -v _test.go); do \
			if grep -q '^[[:space:]]*"time"$$' $$f; then \
				echo "no-wallclock: $$f imports \"time\""; bad=1; \
			fi; \
		done; \
	done; test -z "$$bad"

# The whole tree, race-instrumented; no test skips itself under the detector.
race:
	$(GO) test -race -count=1 -timeout 5m ./...

# Same seed, same run — on any number of processors, with or without the race
# detector: the fault-free byte-identity contracts, the healing-partition
# soak (nobody may be declared dead, digests equal the clean run's), the
# recovery-work counters and the two outcomes the failure detector alone
# decides (a permanent partition exits 126, an idle job with a dead rail does
# not abort), fifty times each on one processor, on the host's own count and on
# eight, then once more race-instrumented (the faulted tests five times there:
# they run ten times slower under the detector). Last, the lock-free word path
# under the race detector: the word tests twenty times, and the apps whose
# programs poll words while puts land (heat2d's flags, traffic's puts) five
# times, so a lost atomicity shows up as a race report, not as a flake.
IDENTITY = TestTraceByteIdenticalAcrossRuns|TestFlowTelemetryByteIdentical|TestGaugeSeriesByteIdenticalFaultFree
FAULTED = TestPartitionHealTransparent|TestRecoveryCountersIndependentOfGOMAXPROCS|TestPermanentPartitionExitCode|TestIncidentStragglerSweep

determinism:
	GOMAXPROCS=1 $(GO) test -count=50 -run '$(IDENTITY)|$(FAULTED)' ./internal/cluster
	$(GO) test -count=50 -run '$(IDENTITY)|$(FAULTED)' ./internal/cluster
	GOMAXPROCS=8 $(GO) test -count=50 -run '$(IDENTITY)|$(FAULTED)' ./internal/cluster
	$(GO) test -race -count=50 -run '$(IDENTITY)' ./internal/cluster
	$(GO) test -race -count=5 -run '$(FAULTED)' ./internal/cluster
	$(GO) test -race -count=20 -run 'TestWordPath|TestAtomicFetchAddConcurrent|TestOnWriteReentrant|TestWindowTable' ./internal/ib
	$(GO) test -race -count=5 ./internal/apps/...

SOAKS = TestChaosSoak|TestChaosRun|TestChaosPEFailureSoak|TestChaosControlPlaneSoak|TestResourceChurnSoak|TestIntegrityChaosSoak|TestChaosCombinedSoak

soak:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -count=1 -run '$(SOAKS)' ./internal/gasnet ./internal/cluster

# The same soaks once per seed in SEEDS, stopping at the first seed that fails
# (replay it with CHAOS_SEED=<seed> make soak). A seed costs about a second and
# a half on two processors; a change that deletes a recovery backstop earns it
# by a sweep of a few hundred, e.g. make soak-sweep SEEDS="$$(seq 1000 1150)".
SEEDS ?= $(shell seq 1 32)

soak-sweep:
	@for s in $(strip $(SEEDS)); do \
		CHAOS_SEED=$$s $(GO) test -count=1 -run '$(SOAKS)' ./internal/gasnet ./internal/cluster >/dev/null 2>&1 || \
			{ echo "soak-sweep: seed $$s FAILS (CHAOS_SEED=$$s make soak)"; exit 1; }; \
	done; echo "soak-sweep: $(words $(SEEDS)) seeds green"

# Fast end-to-end integrity smoke: one seeded traffic run with silent RC
# corruption, torn RDMA writes and link flaps. The digest printed for this
# seed is byte-identical to the fault-free run; the counters at the end must
# show all three fault classes detected and recovered.
smoke:
	$(GO) run ./cmd/oshrun -np 8 -ppn 4 -app traffic \
		-rc-corrupt 0.05 -torn-writes 0.05 -flap 0.02 -fault-seed 7

# Incident-reconciliation smoke: the same seeded fault mix plus UD loss and
# duplication, with the incident ledger on and its table printed. cluster.Run
# audits the ledger, and oshrun exits 1 unless every injected fault maps to
# exactly one resolved incident, so this run failing means an injector fired
# without opening an incident or a recovery path stopped closing one.
incident-smoke:
	$(GO) run ./cmd/oshrun -np 8 -ppn 4 -app traffic \
		-drop 0.05 -dup 0.05 -rc-corrupt 0.05 -torn-writes 0.05 -flap 0.02 \
		-fault-seed 7 -incidents

# Multi-rail failover smoke: the same seeded traffic workload on a two-rail
# fabric, clean and with rail 0 killed mid-workload (0.16s virtual lands in
# the RC traffic phase, after handshake-time rail selection is done, so the
# recovery is live-QP path migration). The faulted run must finish with a
# digest byte-identical to the clean run's and reconcile its incident (the
# audit in cluster.Run fails the run, and oshrun exits 1, otherwise).
rail-smoke:
	@clean=$$($(GO) run ./cmd/oshrun -np 8 -ppn 4 -rails 2 -app traffic \
		| grep -o 'digest [0-9a-f]*'); \
	out=$$($(GO) run ./cmd/oshrun -np 8 -ppn 4 -rails 2 -app traffic \
		-fail-rail "0@0.16" -incidents) || \
		{ echo "rail-smoke: faulted run failed (incident audit?)"; exit 1; }; \
	faulted=$$(echo "$$out" | grep -o 'digest [0-9a-f]*'); \
	echo "rail-smoke: clean $$clean / rail-failure $$faulted"; \
	test -n "$$clean" && test "$$clean" = "$$faulted" || \
		{ echo "rail-smoke: DIGEST MISMATCH after rail failure"; exit 1; }

# Engine-observatory smoke: one np=64 run with the footprint census on,
# checked end to end through the -json export — the schema-versioned
# footprint section must be present and the modeled bytes must tile the
# measured heap (reconciled). Seconds of wall time; guards the whole
# census -> report -> JSON path.
footprint-smoke:
	@out=$$($(GO) run ./cmd/oshrun -np 64 -ppn 16 -footprint -json) || \
		{ echo "footprint-smoke: run failed"; exit 1; }; \
	echo "$$out" | grep -q '"footprint"' || \
		{ echo "footprint-smoke: -json output missing footprint section"; exit 1; }; \
	echo "$$out" | grep -q '"tolerance_frac"' || \
		{ echo "footprint-smoke: footprint section missing its schema fields"; exit 1; }; \
	echo "$$out" | grep -q '"reconciled": true' || \
		{ echo "footprint-smoke: census did not reconcile against the measured heap"; exit 1; }; \
	echo "footprint-smoke: census reconciled at np=64"

# benchmark/ is a nested module, so `go build ./... && go test ./...` at the
# root never compiles it — yet it reads the program's exported structs
# (cluster.Result, gasnet.Stats, ib.HCAStats) directly. Vet and smoke-test it
# here so a refactor of those cannot break the benchmark silently. Seconds of
# wall time; asserts no timing.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The benchmark's faulted workload end to end, through the same entry point
# and build the benchmark comparison uses: np=32 traffic under drops, dups,
# flaps, corruption and torn writes, a two-second window per seed. Each run's
# last line is its result, and it must read "correct":true: every check the
# runner makes on its jobs passed and not every job failed.
chaos-smoke:
	@for s in 1 2 3; do \
		last=$$(bash benchmark/run.sh --workload chaos_traffic --seed $$s --seconds 2 --trace 0 | tail -n 1); \
		echo "$$last" | grep -q '"correct":true' || \
			{ echo "chaos-smoke: seed $$s: $$last"; exit 1; }; \
	done; echo "chaos-smoke: seeds 1 2 3 correct"

# The perf trajectory's virtual numbers (start_pes, put/get latency, credit
# stalls, startup phases) are the cost model's output: this run must
# reproduce every one in the latest committed BENCH_*.json exactly, or the
# change declares a cost-model change and regenerates the baseline with
# `make bench`. The footprint sweep stops at np=256 here and only warns, as
# does the suite's wall time. About ten seconds; the document goes to a
# temporary file, never over the baseline.
bench-check:
	$(GO) run ./cmd/reproduce -exp bench -check -o "$$(mktemp)" -footprint-max-np 256

# Mutate from the checked-in seed corpus of every wire-decoder fuzz target for
# ten seconds each (go test accepts one -fuzz target per run). The seeds alone
# already run as unit tests under `make test`; this is the nightly search for
# new crashers, which land under internal/gasnet/testdata/fuzz when found.
FUZZ_TARGETS = FuzzDecodeConnMsg FuzzDecodeAM FuzzSplitRCTrailer FuzzDecodeSeqPayload FuzzDecodeDest

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime=10s ./internal/gasnet || exit 1; \
	done

# Comment- and blank-free non-test Go lines per package: the size number a
# simplification PR reports before and after.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg d; do \
		n=$$(cat /dev/null $$(ls $$d/*.go | grep -v _test.go) | grep -v '^[[:space:]]*$$' | grep -vc '^[[:space:]]*//'); \
		printf '%6d  %s\n' $$n $$pkg; \
	done

# The conduit's size, the verbs model's, the OpenSHMEM runtime's and the size of
# all packages together are ceilings, not re-anchor findings: where the last change that lowered
# each one landed (the conduit's rounded up to the next fifty). A change that needs more room
# says so by raising the number, in the open.
GASNET_LOC_MAX = 2950
IB_LOC_MAX = 1657
SHMEM_LOC_MAX = 1259
TOTAL_LOC_MAX = 13572

loc-check:
	@$(MAKE) -s loc | awk -v gmax=$(GASNET_LOC_MAX) -v imax=$(IB_LOC_MAX) -v smax=$(SHMEM_LOC_MAX) -v tmax=$(TOTAL_LOC_MAX) \
		'{ total += $$1 } $$2 == "goshmem/internal/gasnet" { gasnet = $$1 } $$2 == "goshmem/internal/ib" { ib = $$1 } \
		$$2 == "goshmem/internal/shmem" { shmem = $$1 } \
		END { over = gasnet > gmax || ib > imax || shmem > smax || total > tmax; \
			printf "loc-check: internal/gasnet %d (ceiling %d), internal/ib %d (ceiling %d), internal/shmem %d (ceiling %d), all packages %d (ceiling %d)%s\n", \
				gasnet, gmax, ib, imax, shmem, smax, total, tmax, over ? ": OVER" : ""; exit over }'

# Write an 8-PE sample Perfetto trace (open trace-demo.json at
# https://ui.perfetto.dev) plus the text report with phase breakdown,
# counters, latency histograms, and the communication-topology view
# (traffic heatmap, peer degrees, QP waste).
trace-demo:
	$(GO) run ./cmd/oshrun -np 8 -ppn 4 -app heat2d -trace-out=trace-demo.json -metrics -topology

# Record the perf trajectory: run the fixed startup/latency/phase/footprint
# suite and write BENCH_<date>.json (schema-versioned; nightly CI uploads it).
bench:
	$(GO) run ./cmd/reproduce -exp bench

clean:
	$(GO) clean ./...
	rm -f trace-demo.json
