# Developer workflow. `make ci` is the gate a change must pass: vet plus
# the full test suite under the race detector.
GO ?= go

.PHONY: build test vet race fuzz bench bench3 bench4 bench5 bench7 bench8 bench9 bench10 benchdiff benchsmoke traintest obssmoke healthtest simtest soaktest tunetest ci

# The hot-kernel benchmarks behind the bench/BENCH_2.json speedup report.
BENCH_PATTERN = BenchmarkMatMul|BenchmarkConvForwardBackward|BenchmarkCodecCompress|BenchmarkCodecDecompress|BenchmarkRingTrainingE2E
# The checkpoint write/restore latency benchmarks behind bench/BENCH_3.json.
BENCH3_PATTERN = BenchmarkCheckpointWrite|BenchmarkCheckpointRestore
# The observability-overhead pair behind bench/BENCH_4.json.
BENCH4_PATTERN = BenchmarkObsOverhead
# The trace-collection benchmarks behind bench/BENCH_5.json.
BENCH5_PATTERN = BenchmarkCollectorMerge|BenchmarkObsOverhead

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector run of the packages with real concurrency (transports,
# collectives, training loops) plus everything else. The training
# convergence suite alone runs ~30 min under -race on a single core,
# hence the generous timeout.
race:
	$(GO) test -race -timeout 60m ./...

# Short fuzzing pass over the wire-frame decoder; the checked-in seed
# corpus in internal/tcpfabric/testdata runs on every plain `make test`.
fuzz:
	$(GO) test ./internal/tcpfabric -run FuzzFrameDecode -fuzz FuzzFrameDecode -fuzztime 30s

# Hot-kernel benchmark report: run the kernel/codec/training benchmarks
# once pinned to a single core and once with the default parallelism, then
# emit bench/BENCH_2.json with per-benchmark ns/op, B/op, and the
# multi-core speedup. On a single-core machine both runs coincide
# (speedup ≈ 1).
bench:
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . | tee bench/bench_single.txt
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem . | tee bench/bench_multi.txt
	$(GO) run ./cmd/benchjson -single bench/bench_single.txt -multi bench/bench_multi.txt -out bench/BENCH_2.json

# Checkpoint write/restore latency report (elastic training durability).
bench3:
	$(GO) test -run '^$$' -bench '$(BENCH3_PATTERN)' -benchmem . | tee bench/bench_ckpt.txt
	$(GO) run ./cmd/benchjson -multi bench/bench_ckpt.txt -out bench/BENCH_3.json

# Observability-overhead report: the same end-to-end training run with the
# recorder detached and attached; bench/BENCH_4.json fails the build when
# the recorder costs more than 2% wall clock.
bench4:
	$(GO) test -run '^$$' -bench '$(BENCH4_PATTERN)' -benchtime 5x -count 1 . | tee bench/bench_obs.txt
	$(GO) run ./cmd/benchjson -multi bench/bench_obs.txt \
		-overhead-off 'BenchmarkObsOverhead/recorderOff' \
		-overhead-on 'BenchmarkObsOverhead/recorderOn' \
		-max-overhead-pct 2 -out bench/BENCH_4.json

# Trace-collection report: the cross-node merge must sustain its
# throughput floor and the recorder must stay under the 2% overhead
# bound; bench/BENCH_5.json fails the build otherwise.
bench5:
	$(GO) test -run '^$$' -bench 'BenchmarkCollectorMerge' -benchmem . | tee bench/bench_collect.txt
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead' -benchtime 5x -count 1 . | tee -a bench/bench_collect.txt
	$(GO) run ./cmd/benchjson -multi bench/bench_collect.txt \
		-overhead-off 'BenchmarkObsOverhead/recorderOff' \
		-overhead-on 'BenchmarkObsOverhead/recorderOn' \
		-max-overhead-pct 2 \
		-min-mb-per-s 'BenchmarkCollectorMerge:50' \
		-out bench/BENCH_5.json

# One-iteration smoke run of the same benchmarks, to keep them compiling
# and executing under CI without paying for a full measurement.
benchsmoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)|$(BENCH3_PATTERN)' -benchtime=1x .

# Training-runner gate, under the race detector — the name-selected
# slices of internal/train in one run:
#  - the conformance table: every data plane × collective × chunking the
#    entry points reach lands bit-identical to the in-process ring, also
#    over lossy links and through a switch fallback on a dead uplink;
#  - crash recovery: a 4-node elastic run with an injected mid-step crash
#    must shrink to 3 survivors and the post-recovery checkpoint must
#    resume bit-identically;
#  - checkpoint round trip: durable stop/resume equals the uninterrupted
#    run, and corrupt checkpoints are rejected with fallback;
#  - elastic scale-out: a 4-node TCP ring loses a worker to a chaos crash,
#    the replacement rejoins from the newest checkpoint and the post-join
#    trail resumes bit-identically; and a control-link partition must
#    evict, fail the minority closed, and heal back to full membership.
# Several minutes under -race, hence the headroom on the timeout.
TRAINTEST_PATTERN = TestFixedRunnersBitIdenticalToRing|TestElasticCrashRecovery|TestElasticStopResumeMatchesUninterrupted|TestRunCheckpointRoundTripAndCorruptFallback|TestElasticTCPJoin|TestElasticTCPPartitionHeal|TestGCCheckpointsKeepsNewestValid
traintest:
	$(GO) test ./internal/train -run '$(TRAINTEST_PATTERN)' -count=1 -race -timeout 30m

# Observability smoke, in three acts:
#  1. legacy single-file path — a traced run must render a non-empty
#     per-node breakdown (inctrace exits nonzero on an empty trace);
#  2. collect→merge→blame round trip — a 3-worker run with an injected
#     straggler writes per-node trace files, `inctrace merge` aligns
#     them on their meta epochs, and `inctrace blame` must attribute the
#     critical path to the straggler;
#  3. the live-endpoint collector test (clock handshake + skew
#     correction) against real HTTP servers.
obssmoke:
	$(GO) run ./cmd/inctrain -model hdc-small -workers 4 -iters 30 -eval 30 -compress \
		-trace-out bench/obssmoke_trace.jsonl
	$(GO) run ./cmd/inctrace -no-timeline bench/obssmoke_trace.jsonl | grep -q 'trace wall clock'
	$(GO) run ./cmd/inctrain -model hdc-small -workers 3 -iters 20 -eval 20 \
		-straggle 1:25ms -trace-dir bench/obssmoke_nodes
	$(GO) run ./cmd/inctrace merge -out bench/obssmoke_merged.jsonl bench/obssmoke_nodes/trace_node*.jsonl
	$(GO) run ./cmd/inctrace blame -min-gap 2ms bench/obssmoke_merged.jsonl | grep -q 'gating: node 1'
	$(GO) test ./internal/obs -run 'TestCollectorLiveEndpoints' -count=1

# Simulator/collective correctness gate, under the race detector: the
# closed-form network model, the event-driven simulator, and the MPI-style
# collectives (including the switch all-reduce's bit-exactness-with-ring
# and the uneven-partition regression suites) in one focused run.
simtest:
	$(GO) test -race ./internal/netsim ./internal/eventsim ./internal/mpi

# In-network switch aggregation report: closed-form WA vs ring vs switch
# exchange times at 4/8/16 nodes. The run fails unless the switch beats
# the worker aggregator's incast at every scale >= 8 nodes.
bench7:
	$(GO) run ./cmd/incbench -bench7 bench/BENCH_7.json

# Switch->ring fallback cost report: the fluid-flow model's and the
# measured runner's degraded (post-fallback) iteration must stay within
# 1.15x a plain ring iteration, and a silently stalled switch must be
# detected within 2x the step deadline. Writes bench/BENCH_8.json and
# fails the build on any gate.
bench8:
	$(GO) run ./cmd/incbench -bench8 bench/BENCH_8.json

# Health-engine overhead report: the same end-to-end training run with the
# recorder attached in both variants, plus the streaming health engine
# (detectors + flight recorder + poller) in the second. bench/BENCH_9.json
# fails the build when the engine costs more than 2% wall clock.
bench9:
	$(GO) test -run '^$$' -bench 'BenchmarkHealthOverhead' -benchtime 10x -count 1 . | tee bench/bench_health.txt
	$(GO) run ./cmd/benchjson -multi bench/bench_health.txt \
		-overhead-off 'BenchmarkHealthOverhead/healthOff' \
		-overhead-on 'BenchmarkHealthOverhead/healthOn' \
		-max-overhead-pct 2 -out bench/BENCH_9.json

# Auto-tuner acceptance gate: the tune package's unit suite under the
# race detector (the strict timing gate skips itself there — the race
# runtime's ~30x slowdown changes the machine the probes measure), then
# the end-to-end probe→fit→validate loop without -race with the timing
# gate armed: the fitted model must track a pooled 3-run measured holdout's
# communication phases within 15% (one refit retry on a miss).
tunetest:
	$(GO) test -race ./internal/tune -count=1
	TUNE_STRICT=1 $(GO) test ./internal/tune -run 'TestAutoTuneEndToEnd' -count=1 -timeout 15m

# Auto-tuner pick-quality report: AutoTune probes and plans on the
# in-process fabric, then every ranked candidate is brute-force measured.
# bench/BENCH_10.json fails the build unless the tuner's pick measures
# within 1.10x of the brute-force best and the fitted model tracks a
# pooled measured holdout within 15%.
bench10:
	$(GO) run ./cmd/incbench -bench10 bench/BENCH_10.json

# Bench regression gate: re-measure the health-overhead pair and the
# auto-tuner plan sweep, then diff each fresh report against its
# checked-in baseline (bench/BENCH_9.json, bench/BENCH_10.json); any
# shared benchmark regressing beyond its bound (fractional) fails CI.
# Widen the bounds (e.g. MAX_REGRESS=0.35) on noisy shared hardware.
# BENCH10's bound is wide by design: its entries are ~15ms end-to-end
# training iterations whose absolute times swing with machine load — the
# pick-vs-best and holdout gates inside bench10 are the real acceptance
# criteria, the diff only catches order-of-magnitude collapses.
MAX_REGRESS ?= 0.10
BENCH10_MAX_REGRESS ?= 0.60
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkHealthOverhead' -benchtime 10x -count 1 . | tee bench/bench_health_ci.txt
	$(GO) run ./cmd/benchjson -multi bench/bench_health_ci.txt \
		-overhead-off 'BenchmarkHealthOverhead/healthOff' \
		-overhead-on 'BenchmarkHealthOverhead/healthOn' \
		-out bench/BENCH_9_ci.json
	$(GO) run ./cmd/benchjson -diff -max-regress $(MAX_REGRESS) bench/BENCH_9.json bench/BENCH_9_ci.json
	$(GO) run ./cmd/incbench -bench10 bench/BENCH_10_ci.json
	$(GO) run ./cmd/benchjson -diff -max-regress $(BENCH10_MAX_REGRESS) bench/BENCH_10.json bench/BENCH_10_ci.json

# Health-engine gate: the streaming detectors' seeded incident-injection
# suite under the race detector (stragglers, degraded links, counter
# bursts, fallback/eviction pushes, flight-recorder round trips) plus the
# end-to-end runner wiring tests (injected straggler and switch stall each
# open exactly one correctly-blamed incident; a clean run opens none).
# The end-to-end runs stay off -race: like the existing blame acceptance
# test, their ≥90%-attribution bounds measure real scheduling gaps that
# the race detector's 10-20x timing distortion swamps.
healthtest:
	$(GO) test -race ./internal/obs/health -count=1
	$(GO) test ./internal/train -run 'TestHealth' -count=1 -timeout 10m

# Randomized chaos soak, under the race detector: 20 seeded trials of
# switch kills, mid-stream partitions, lossy links, and worker crashes
# against the self-healing switch runner (in-process and TCP) and the
# elastic TCP runner. Every trial must finish bit-exact with a fault-free
# ring reference or fail closed with a gradeable error; the wall-clock
# budget keeps a pathological trial from eating the CI slot. Override
# SOAK_TRIALS / SOAK_SEED to widen or replay a run.
SOAK_TRIALS ?= 20
SOAK_SEED ?= 1
soaktest:
	$(GO) test -race -timeout 30m ./internal/soak -run 'TestSoak$$' -count=1 -v \
		-soak-trials=$(SOAK_TRIALS) -soak-seed=$(SOAK_SEED) -soak-budget=20m

ci: vet simtest traintest obssmoke healthtest tunetest soaktest race benchsmoke benchdiff
