// Command incbench regenerates the tables and figures of the INCEPTIONN
// paper's evaluation section.
//
// Usage:
//
//	incbench -list
//	incbench -run fig12
//	incbench -run all [-full] [-seed N]
//	incbench -run switch
//	incbench -simtrace sim.jsonl [-sim-strategy ring|switch] [-sim-workers 4] [-sim-straggle 2:5ms]
//
// The -simtrace mode writes a fluid-flow-simulated gradient exchange
// (ring, or the in-network switch reduction) as a span trace in the same
// schema a real run emits, so `inctrace blame` and `inctrace calibrate
// -measured run.jsonl -sim sim.jsonl` work on it directly. Performance is
// measured by bench/perf, and the cross-component checks are unit tests
// under go test, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"inceptionn/internal/eventsim"
	"inceptionn/internal/experiments"
	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// parseSimStraggle parses "node:dur[,node:dur...]" (e.g. "2:5ms") into
// per-node extra compute seconds.
func parseSimStraggle(spec string, workers int) ([]float64, error) {
	delays := make([]float64, workers)
	if spec == "" {
		return delays, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -sim-straggle entry %q, want node:duration", part)
		}
		node, err := strconv.Atoi(kv[0])
		if err != nil || node < 0 || node >= workers {
			return nil, fmt.Errorf("bad -sim-straggle node %q (workers=%d)", kv[0], workers)
		}
		d, err := time.ParseDuration(kv[1])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad -sim-straggle duration %q", kv[1])
		}
		delays[node] = d.Seconds()
	}
	return delays, nil
}

// simTraceConfig carries the -sim-* knobs of the -simtrace mode.
type simTraceConfig struct {
	strategy   string // "ring" or "switch"
	workers    int
	iters      int
	bytes      int64
	compute    float64
	straggle   string
	switchMem  int64   // switch strategy: on-switch buffer bytes
	switchRate float64 // switch strategy: combine bytes/s (0 = line rate)
}

// runSimTrace simulates -sim-iters gradient exchanges of the selected
// strategy with the fluid-flow event simulator and writes the spans as
// trace JSONL.
func runSimTrace(out string, c simTraceConfig) error {
	switch {
	case c.workers < 2:
		return fmt.Errorf("-sim-workers must be >= 2, got %d", c.workers)
	case c.iters < 1:
		return fmt.Errorf("-sim-iters must be >= 1, got %d", c.iters)
	case c.bytes <= 0:
		return fmt.Errorf("-sim-bytes must be > 0, got %d", c.bytes)
	case !(c.compute >= 0): // NaN too
		return fmt.Errorf("-sim-compute must be >= 0, got %g", c.compute)
	}
	delays, err := parseSimStraggle(c.straggle, c.workers)
	if err != nil {
		return err
	}
	np := netsim.Default10GbE()
	np.SwitchMemBytes, np.SwitchSumRate = c.switchMem, c.switchRate
	if err := np.Validate(); err != nil {
		return err
	}

	tr := obs.NewTracer(1 << 18)
	// The flows carry the raw gradient bytes (no Traffic): -sim-bytes is
	// what each link moves.
	totalSec, err := eventsim.Replay(np, eventsim.Iteration{
		Strategy:        c.strategy,
		Workers:         c.workers,
		ModelBytes:      c.bytes,
		SumDelayPerStep: np.SumTime(netsim.RingBlockBytes(c.bytes, c.workers)),
		Compute:         c.compute,
		NodeDelay:       delays,
	}, c.iters, obs.NewRecorder(obs.NewRegistry(), tr))
	if err != nil {
		return fmt.Errorf("-sim-strategy: %w", err)
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	meta := obs.TraceMeta{Version: 1, Node: -1, Source: "sim"}
	if err := obs.WriteSpansJSONL(f, meta, tr.Snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("simtrace: %s, %d workers x %d iters (%d B gradients) -> %s (%d spans, %.3fs simulated)\n",
		c.strategy, c.workers, c.iters, c.bytes, out, len(tr.Snapshot()), totalSec)
	blameHint := ""
	if c.strategy == "switch" {
		blameHint = fmt.Sprintf(" -switch-node %d", c.workers)
	}
	fmt.Printf("  analyse: inctrace blame%s %s | inctrace calibrate -measured run.jsonl -sim %s\n",
		blameHint, out, out)
	return nil
}

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	run := flag.String("run", "all", "experiment to run (name or 'all')")
	full := flag.Bool("full", false, "full-scale training runs (slower, closer to the paper)")
	seed := flag.Int64("seed", 42, "deterministic seed for all experiments")
	simtrace := flag.String("simtrace", "", "write a simulated gradient-exchange span trace (JSONL) to this file and exit")
	simStrategy := flag.String("sim-strategy", "ring", "simtrace: exchange strategy (ring or switch)")
	simWorkers := flag.Int("sim-workers", 4, "simtrace: worker count")
	simIters := flag.Int("sim-iters", 10, "simtrace: iterations to simulate")
	simBytes := flag.Int64("sim-bytes", 4<<20, "simtrace: gradient bytes per node per iteration")
	simCompute := flag.Float64("sim-compute", 2e-3, "simtrace: per-node compute seconds per iteration")
	simStraggle := flag.String("sim-straggle", "", "simtrace: extra compute per node, e.g. '2:5ms' or '1:2ms,3:1ms'")
	simSwitchMem := flag.Int64("sim-switch-mem", 1<<20, "simtrace switch: on-switch aggregation buffer bytes")
	simSwitchRate := flag.Float64("sim-switch-rate", 0, "simtrace switch: combine throughput bytes/s (0 = line rate)")
	flag.Parse()

	if *simtrace != "" {
		err := runSimTrace(*simtrace, simTraceConfig{
			strategy: *simStrategy, workers: *simWorkers, iters: *simIters,
			bytes: *simBytes, compute: *simCompute, straggle: *simStraggle,
			switchMem: *simSwitchMem, switchRate: *simSwitchRate,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "incbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Title)
		}
		return
	}

	opts := experiments.Options{Quick: !*full, Seed: *seed}
	var toRun []experiments.Experiment
	if *run == "all" {
		toRun = experiments.Registry()
	} else {
		for _, name := range strings.Split(*run, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "incbench: unknown experiment %q; -list shows options\n", name)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	for _, e := range toRun {
		fmt.Printf("\n################ %s: %s ################\n", e.Name, e.Title)
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "incbench: %s failed: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
