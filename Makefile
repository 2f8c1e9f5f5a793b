# Developer workflow. `make ci` is the gate a change must pass: vet plus
# the full test suite under the race detector.
GO ?= go

.PHONY: build test vet race fuzz bench traintest obssmoke simtest soaktest ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The first vet's asmdecl checks every amd64 .s file against its Go
# declarations (tensor's, fpcodec's and opt's AVX2 kernels, par's CPU
# probe). The second vet builds the whole module for arm64, a port without
# assembly, where the portable Go loops (tensor.go, fpcodec's kernel.go,
# opt's stepGo) are the whole implementation (the kernel_other.go files,
# cpu_other.go): it keeps that path compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l:" $$unformatted; exit 1; }

# Race-detector run of the packages with real concurrency (transports,
# collectives, training loops) plus everything else. The timeout is per
# package and is not generous on a small box: measured on 2 vCPUs the run
# took 67 min of wall clock, internal/experiments hit the 60 min limit
# (its fig4 section alone had run 45 min) and internal/train (54 min)
# failed its wall-clock gates, which the race runtime distorts; the
# name-selected targets below are the slices that hold under -race there
# (ROADMAP item 5, "Virtual time", whose gates fold them back into `race`).
race:
	$(GO) test -race -timeout 60m ./...

# Short fuzzing passes over everything that parses bytes it did not write:
# the frame decoder, the 4-wide float32 byte kernel against its scalar loop, the codec's group kernel against its scalar reference
# in both directions (on each kernel path), the Fig. 10 burst-buffer model
# against the group kernel, the JSONL trace document reader and the fitter it
# feeds, the checkpoint reader on internal/frame, the matmul kernels'
# zero skip against their scalar loops, and the optimizer's update against
# the loops it fused, on arbitrary float32 bits. The
# seed corpora (checked in under internal/tcpfabric/testdata and
# internal/fpcodec/testdata, in code for the others) run on every plain
# `make test`. FuzzFit's inputs take milliseconds each, so it caps input
# minimization at 2 s, which would otherwise eat most of its 30 s.
fuzz:
	$(GO) test ./internal/tcpfabric -run FuzzFrameDecode -fuzz FuzzFrameDecode -fuzztime 30s
	$(GO) test ./internal/frame -run FuzzF32sRoundtrip -fuzz FuzzF32sRoundtrip -fuzztime 30s
	$(GO) test ./internal/fpcodec -run FuzzDecompressStream -fuzz FuzzDecompressStream -fuzztime 30s
	$(GO) test ./internal/fpcodec -run FuzzCompressStream -fuzz FuzzCompressStream -fuzztime 30s
	$(GO) test ./internal/fpcodec -run FuzzScalarRoundtrip -fuzz FuzzScalarRoundtrip -fuzztime 30s
	$(GO) test ./internal/nic -run FuzzBurstDecompressor -fuzz FuzzBurstDecompressor -fuzztime 30s
	$(GO) test ./internal/obs -run FuzzReadTrace -fuzz FuzzReadTrace -fuzztime 30s
	$(GO) test ./internal/tune -run FuzzFit -fuzz FuzzFit -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/train -run FuzzDecodeCheckpoint -fuzz FuzzDecodeCheckpoint -fuzztime 30s
	$(GO) test ./internal/tensor -run FuzzKernels -fuzz FuzzKernels -fuzztime 30s
	$(GO) test ./internal/opt -run FuzzStep -fuzz FuzzStep -fuzztime 30s

# The repo's one benchmark (BENCHMARK.json runs the same program through
# bench/perf/run.sh): five end-to-end training workloads plus the
# per-layer budget; see bench/perf/README.md.
bench:
	$(GO) run ./bench/perf

# Training-runner gate, under the race detector — the name-selected
# slices of internal/train in one run, the fault contract every run
# keeps (DESIGN.md §7, §9):
#  - clean: the conformance table — every data plane × collective ×
#    chunking train.Run reaches lands bit-identical to the in-process
#    ring;
#  - fail closed: a corrupted frame fails every collective with the
#    fabric's bad-frame error (the table's lossy-link rows); a ring run
#    fails with its cause under each fault the wire can show (corrupt,
#    truncate, drop, partition, crash); a permanently partitioned ring
#    link or switch port fails the run with a deadline error naming the
#    hop, and a switch that dies mid-multicast fails it with its cause.
# Minutes under -race, hence the headroom on the timeout.
TRAINTEST_PATTERN = TestFixedRunnersBitIdenticalToRing|TestRingTCPTrainingUnderChaos|TestRingTCPTrainingPartitionFails|TestSwitchCrashFailsClosed
traintest:
	$(GO) test ./internal/train -run '$(TRAINTEST_PATTERN)' -count=1 -race -timeout 30m

# Observability smoke, in two acts:
#  1. legacy single-file path — a traced run must render a non-empty
#     per-node breakdown (inctrace exits nonzero on an empty trace),
#     and its saved -metrics-out snapshot must render through
#     `inctrace metrics` (the last line);
#  2. merge→blame round trip — a 3-worker run with an injected
#     straggler writes per-node trace files, `inctrace merge` aligns
#     them on their meta epochs, and `inctrace blame` must attribute the
#     critical path to the straggler.
obssmoke:
	$(GO) run ./cmd/inctrain -model hdc-small -workers 4 -iters 30 -eval 30 -compress \
		-trace-out bench/obssmoke_trace.jsonl -metrics-out bench/obssmoke_metrics.json
	$(GO) run ./cmd/inctrace -no-timeline bench/obssmoke_trace.jsonl | grep -q 'trace wall clock'
	$(GO) run ./cmd/inctrain -model hdc-small -workers 3 -iters 20 -eval 20 \
		-straggle 1:25ms -trace-dir bench/obssmoke_nodes
	$(GO) run ./cmd/inctrace merge -out bench/obssmoke_merged.jsonl bench/obssmoke_nodes/trace_node*.jsonl
	$(GO) run ./cmd/inctrace blame -min-gap 2ms bench/obssmoke_merged.jsonl | grep -q 'gating: node 1'
	$(GO) run ./cmd/inctrace metrics bench/obssmoke_metrics.json | grep -q train_iter_seconds

# Simulator/collective correctness gate, under the race detector: the
# whole model stack — the closed-form network model with the paper's
# analytic formulas, the event-driven simulator, the Table II/III
# calibration on top of them, and the offline fitter and planner over
# recorded traces (tune) — and the wire and collective stack of
# DESIGN.md §3c, whose packages run real goroutines (ring's chunk sender,
# tcpfabric's read loops) and otherwise reach the race detector only
# through the all-or-nothing `race` target: the transports (comm,
# tcpfabric, and fault's injector), the ring and hub primitives,
# hierarchy, and the MPI-style collectives (including the switch
# all-reduce's bit-exactness-with-ring suite and their chaos tables over
# tcpfabric) in one focused run. The compute kernels
# ride along (par, tensor, nn, opt; 81 s of wall clock together on 2 vCPUs,
# 79 s of it tensor's differential tables on both kernel paths): their row and batch
# shards write one output from several goroutines, and the differential
# tables that pin the kernels to the scalar loops run at worker counts 1-5.
simtest:
	$(GO) test -race ./internal/netsim ./internal/eventsim ./internal/trainsim ./internal/tune ./internal/mpi \
		./internal/comm ./internal/fault ./internal/tcpfabric ./internal/ring ./internal/hierarchy \
		./internal/par ./internal/tensor ./internal/nn ./internal/opt

# Randomized chaos soak, under the race detector: 20 seeded trials of
# switch kills, mid-stream partitions, a dropped or corrupted frame, and
# worker crashes, five kinds, all on train.Run's TCP plane (the one wire
# chaos faults): switch runs and ring runs. Every trial must fail closed
# with its cause, not a bare context.Canceled — a bad frame with
# fault.ErrBadFrame wherever a later frame follows it on its link; the
# wall-clock budget keeps a pathological trial from eating the CI slot.
# Override SOAK_TRIALS / SOAK_SEED to widen or replay a run.
SOAK_TRIALS ?= 20
SOAK_SEED ?= 1
soaktest:
	$(GO) test -race -timeout 30m ./internal/soak -run 'TestSoak$$' -count=1 -v \
		-soak-trials=$(SOAK_TRIALS) -soak-seed=$(SOAK_SEED) -soak-budget=20m

ci: vet simtest traintest obssmoke soaktest race
