// Command inctrain runs distributed DNN training on the simulated cluster:
// the INCEPTIONN gradient-centric ring or the worker-aggregator baseline,
// with optional in-NIC gradient compression, in process or over loopback
// TCP (-tcp, any -algo).
//
// Usage:
//
//	inctrain -model hdc-small -workers 4 -algo ring -iters 300 -compress -bound 10
//	inctrain -algo ring2 -workers 8 -group 4         # Fig. 1c hierarchy
//	inctrain -algo switch -workers 8 -switch-chunk 4096
//	                                                 # in-network switch aggregation
//	inctrain -tcp -compress                          # real loopback TCP sockets
//	inctrain -tcp -algo wa -chaos-corrupt 0.02 -step-timeout 10s
//	                                                 # any collective fails closed on a bad frame
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"inceptionn/internal/comm"
	"inceptionn/internal/data"
	"inceptionn/internal/fault"
	"inceptionn/internal/fpcodec"
	"inceptionn/internal/models"
	"inceptionn/internal/obs"
	"inceptionn/internal/opt"
	"inceptionn/internal/train"
	"inceptionn/internal/tune"
)

// parseCrashSpec parses -chaos-crash: comma-separated node:afterSends
// pairs, e.g. "2:65" or "1:40,3:200".
func parseCrashSpec(spec string) (map[int]uint64, error) {
	out := make(map[int]uint64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		node, after, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad crash spec %q (want node:afterSends)", part)
		}
		id, err := strconv.Atoi(node)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad crash spec node %q", node)
		}
		n, err := strconv.ParseUint(after, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad crash spec count %q", after)
		}
		out[id] = n
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty crash spec %q", spec)
	}
	return out, nil
}

// parseStragglerSpec parses -straggle: comma-separated node:duration
// pairs, e.g. "2:5ms" or "0:1ms,3:10ms".
func parseStragglerSpec(spec string) (map[int]time.Duration, error) {
	out := make(map[int]time.Duration)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		node, dur, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("bad straggle spec %q (want node:duration)", part)
		}
		id, err := strconv.Atoi(node)
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad straggle spec node %q", node)
		}
		d, err := time.ParseDuration(dur)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad straggle spec duration %q", dur)
		}
		out[id] = d
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty straggle spec %q", spec)
	}
	return out, nil
}

func main() {
	model := flag.String("model", "hdc-small", "trainable model: hdc, hdc-small, mini-alexnet, mini-vgg, mini-resnet")
	workers := flag.Int("workers", 4, "number of worker nodes")
	algo := flag.String("algo", "ring", "distributed algorithm: ring, wa, tree2 (Fig 1b), ring2 (Fig 1c), switch (in-network aggregation)")
	groupSize := flag.Int("group", 4, "group size for the hierarchical algorithms")
	switchChunk := flag.Int("switch-chunk", 0, "switch algorithm: floats per streamed chunk (0 = whole gradient; models bounded switch memory)")
	iters := flag.Int("iters", 300, "training iterations")
	batch := flag.Int("batch", 16, "per-node batch size")
	lr := flag.Float64("lr", 0.02, "base learning rate")
	compress := flag.Bool("compress", false, "enable in-NIC lossy gradient compression")
	tcp := flag.Bool("tcp", false, "run the exchange over genuine loopback TCP sockets")
	chaosDrop := flag.Float64("chaos-drop", 0, "chaos: frame drop rate on every link (0..1; requires -tcp)")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "chaos: frame bit-flip rate on every link (0..1; requires -tcp)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos: deterministic injection seed")
	stepTimeout := flag.Duration("step-timeout", 0, "per-hop collective deadline (0 = none), e.g. 10s")
	bound := flag.Int("bound", 10, "codec error bound exponent E (bound 2^-E)")
	seed := flag.Int64("seed", 42, "seed for model init and data")
	samples := flag.Int("samples", 4000, "synthetic training samples")
	evalEvery := flag.Int("eval", 50, "evaluate every N iterations")
	chaosCrash := flag.String("chaos-crash", "", "chaos: crash nodes after N frame sends, e.g. \"2:65\" or \"1:40,3:200\" (requires -tcp)")
	traceOut := flag.String("trace-out", "", "write the step trace as JSONL to this file when the run ends (inctrace reads it)")
	traceDir := flag.String("trace-dir", "", "also split the trace into per-node JSONL files (trace_node<N>.jsonl) in this directory, for `inctrace merge`")
	metricsOut := flag.String("metrics-out", "", "write the final metrics snapshot as JSON to this file when the run ends (inctrace metrics reads it)")
	traceCap := flag.Int("trace-cap", 1<<16, "step tracer ring-buffer capacity (spans; oldest overwritten)")
	straggle := flag.String("straggle", "", "inject per-iteration compute delay on nodes, e.g. \"2:5ms\" or \"0:1ms,3:10ms\" (validates `inctrace blame`)")
	flag.Parse()

	if *traceCap < 1 {
		fmt.Fprintf(os.Stderr, "inctrain: -trace-cap %d, want at least 1 span\n", *traceCap)
		os.Exit(2)
	}
	build, ok := models.Builders[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "inctrain: unknown model %q\n", *model)
		os.Exit(2)
	}

	var trainDS, testDS data.Dataset
	if *model == "hdc" || *model == "hdc-small" {
		trainDS = data.NewDigits(*samples, *seed)
		testDS = data.NewDigits(*samples/8, *seed+1)
	} else {
		trainDS = data.NewImages(*samples, *seed)
		testDS = data.NewImages(*samples/8, *seed+1)
	}

	o := train.Options{
		Workers:      *workers,
		BatchPerNode: *batch,
		Schedule:     opt.StepSchedule{Base: *lr, Factor: 5, Every: *iters * 2 / 3},
		Momentum:     0.9,
		WeightDecay:  0.00005,
		Seed:         *seed,
		EvalEvery:    *evalEvery,
		EvalSamples:  512,
		StepTimeout:  *stepTimeout,
	}
	switch *algo {
	case "ring":
		o.Algo = train.Ring
	case "wa":
		o.Algo = train.WorkerAggregator
	case "tree2":
		o.Algo = train.HierarchicalTree
		o.GroupSize = *groupSize
	case "ring2":
		o.Algo = train.HierarchicalRing
		o.GroupSize = *groupSize
	case "switch":
		o.Algo = train.SwitchReduce
		o.SwitchChunk = *switchChunk
	default:
		fmt.Fprintf(os.Stderr, "inctrain: unknown algorithm %q\n", *algo)
		os.Exit(2)
	}
	// Observability: a registry + bounded tracer feed the end-of-run
	// trace/metrics files. Leaving every obs flag unset keeps o.Obs nil
	// and the hot paths free of even a clock read.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *traceOut != "" || *traceDir != "" || *metricsOut != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(*traceCap)
		reg.Func("fpcodec_values_compressed", func() float64 {
			v, _ := fpcodec.StreamTotals()
			return float64(v)
		})
		reg.Func("fpcodec_bits_emitted", func() float64 {
			_, b := fpcodec.StreamTotals()
			return float64(b)
		})
		o.Obs = obs.NewRecorder(reg, tracer)
	}

	// The TCP plane's fabric embeds its own engines at o.Bound; the
	// in-process plane takes the codec as a wire processor.
	o.Compress = *compress
	if *tcp || *compress {
		b, err := fpcodec.NewBound(*bound)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inctrain:", err)
			os.Exit(2)
		}
		if *tcp {
			o.Plane, o.Bound = train.TCP, b
		} else {
			o.Processor = comm.CodecProcessor{Bound: b}
		}
	}
	if *straggle != "" {
		s, serr := parseStragglerSpec(*straggle)
		if serr != nil {
			fmt.Fprintln(os.Stderr, "inctrain:", serr)
			os.Exit(2)
		}
		o.Straggler = s
		fmt.Printf("straggle: %v\n", s)
	}

	// Chaos faults the TCP fabric's frames; the in-process fabric has no
	// wire to fault.
	if *chaosDrop > 0 || *chaosCorrupt > 0 || *chaosCrash != "" {
		if !*tcp {
			fmt.Fprintln(os.Stderr, "inctrain: -chaos-drop, -chaos-corrupt and -chaos-crash require -tcp")
			os.Exit(2)
		}
		cfg := &fault.Config{
			Seed:    *chaosSeed,
			Default: fault.LinkFaults{DropRate: *chaosDrop, CorruptRate: *chaosCorrupt},
		}
		if *chaosCrash != "" {
			crash, cerr := parseCrashSpec(*chaosCrash)
			if cerr != nil {
				fmt.Fprintln(os.Stderr, "inctrain:", cerr)
				os.Exit(2)
			}
			cfg.CrashAfter = crash
		}
		o.Chaos = cfg
		fmt.Printf("chaos: drop %.1f%%, corrupt %.1f%%, crash %q (seed %d)\n",
			100**chaosDrop, 100**chaosCorrupt, *chaosCrash, *chaosSeed)
	}

	// tuneMeta, when set, is appended to -trace-out as a self-describing
	// tune_meta line: the run's workload. `inctrace tune` then re-fits and
	// re-plans from the trace file alone.
	var tuneMeta *tune.Meta

	// flushObs persists the span ring buffer (whole-run file and/or
	// per-node split) and the final metrics snapshot; called on every exit
	// path that has training work behind it, including SIGINT. It reports
	// whether every record asked for was written.
	flushObs := func() (ok bool) {
		ok = true
		if tracer != nil && *traceOut != "" {
			f, ferr := os.Create(*traceOut)
			if ferr == nil {
				ferr = tracer.WriteJSONL(f)
				if ferr == nil && tuneMeta != nil {
					ferr = tuneMeta.Append(f)
				}
				if cerr := f.Close(); ferr == nil {
					ferr = cerr
				}
			}
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "inctrain: trace:", ferr)
				ok = false
			} else {
				fmt.Printf("trace: %d spans retained -> %s (render with inctrace)\n", len(tracer.Snapshot()), *traceOut)
			}
		}
		if tracer != nil && *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "inctrain: trace-dir:", err)
				ok = false
			} else {
				nodes := make(map[int]bool)
				for _, s := range tracer.Snapshot() {
					nodes[s.Node] = true
				}
				written := 0
				for node := range nodes {
					path := filepath.Join(*traceDir, fmt.Sprintf("trace_node%d.jsonl", node))
					f, ferr := os.Create(path)
					if ferr == nil {
						ferr = tracer.WriteNodeJSONL(f, node)
						if cerr := f.Close(); ferr == nil {
							ferr = cerr
						}
					}
					if ferr != nil {
						fmt.Fprintln(os.Stderr, "inctrain: trace-dir:", ferr)
						ok = false
						continue
					}
					written++
				}
				fmt.Printf("trace: %d per-node files -> %s (merge with `inctrace merge %s/trace_node*.jsonl`)\n",
					written, *traceDir, *traceDir)
			}
		}
		if reg != nil && *metricsOut != "" {
			data, jerr := json.MarshalIndent(reg.Snapshot(), "", "  ")
			if jerr == nil {
				jerr = os.WriteFile(*metricsOut, append(data, '\n'), 0o644)
			}
			if jerr != nil {
				fmt.Fprintln(os.Stderr, "inctrain: metrics:", jerr)
				ok = false
			} else {
				fmt.Printf("metrics: final snapshot -> %s\n", *metricsOut)
			}
		}
		return ok
	}

	// A run has no graceful halt, but a ^C must not lose the observability
	// artifacts: flush what the tracer holds, then exit with the
	// conventional 128+SIGINT status.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "inctrain: %v: flushing observability artifacts\n", s)
		flushObs()
		os.Exit(130)
	}()
	defer signal.Stop(sig)

	transport := "in-process fabric"
	if *tcp {
		transport = "loopback TCP"
	}
	fmt.Printf("inctrain: %s on %d workers (%s over %s), %d iters, batch %d, compress=%v\n",
		*model, *workers, *algo, transport, *iters, *batch, *compress)
	res, err := train.Run(build, trainDS, testDS, *iters, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "inctrain:", err)
		flushObs()
		os.Exit(1)
	}
	for _, p := range res.Evals {
		fmt.Printf("  iter %5d  accuracy %5.1f%%  loss %.4f\n", p.Iter, 100*p.Accuracy, p.Loss)
	}
	fmt.Printf("final: accuracy %.1f%%  loss %.4f\n", 100*res.FinalAcc, res.FinalLoss)
	if res.RawBytes > 0 && res.WireBytes > 0 {
		fmt.Printf("traffic: %d raw bytes, %d wire bytes (%.2fx reduction)\n",
			res.RawBytes, res.WireBytes, float64(res.RawBytes)/float64(res.WireBytes))
	}
	if res.ComputeSeconds > 0 || res.CommSeconds > 0 {
		fmt.Printf("timing: compute %.3fs, comm %.3fs, straggler wait %.3fs (summed across workers)\n",
			res.ComputeSeconds, res.CommSeconds, res.StragglerWaitSeconds)
	}
	// The run's self-describing tune_meta line, so `inctrace tune
	// run.jsonl` can re-fit from the trace file alone.
	if tracer != nil && *traceOut != "" {
		w := tune.Workload{
			Workers:     *workers,
			ModelBytes:  build(rand.New(rand.NewSource(*seed))).SizeBytes(),
			Strategy:    o.Algo.String(),
			ChunkFloats: o.ChunkSize,
			Compress:    o.Compress,
			Iters:       *iters,
		}
		if o.Algo == train.SwitchReduce {
			w.ChunkFloats = o.SwitchChunk
		}
		if o.Compress && res.RawBytes > 0 && res.WireBytes > 0 {
			w.Ratio = float64(res.RawBytes) / float64(res.WireBytes)
		}
		if w.Validate() == nil {
			m := tune.Meta{Version: 1, Workload: w}
			tuneMeta = &m
		}
	}
	if !flushObs() {
		os.Exit(1)
	}
}
