// Command inctrace renders and analyses the observability artifacts a
// training run (or a simulator) produces, all in the shared span schema:
//
//	inctrace trace.jsonl                      # per-node breakdown + timeline
//	inctrace -addr 127.0.0.1:8080             # same, scraped from a live run
//	inctrace breakdown [flags] traces...      # the explicit form of the above
//	inctrace metrics -addr 127.0.0.1:8080     # metric snapshot with quantiles
//	inctrace merge -out merged.jsonl t0 t1 t2 # merge per-node trace files on
//	                                          # their trace_meta epochs
//	inctrace blame merged.jsonl               # critical-path attribution:
//	                                          # gating node, blame matrix,
//	                                          # straggler report
//	inctrace blame -switch-node 4 sim.jsonl   # same, labelling the in-network
//	                                          # aggregation switch when it gates
//	inctrace calibrate -measured run.jsonl -sim sim.jsonl
//	                                          # per-phase sim-vs-measured
//	                                          # relative error table;
//	                                          # -max-rel-err gates CI
//	inctrace tune run.jsonl                   # fit α-β-γ from the trace,
//	                                          # rank strategy/chunk/compression
//	                                          # plans, what-if scaling
//
// The bare-filename and -addr forms are the legacy interface and keep
// working unchanged; everything else is a subcommand.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
	"inceptionn/internal/tune"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "inctrace:", err)
	os.Exit(1)
}

// fetch GETs path from a live endpoint with a short timeout.
func fetch(addr, path string) ([]byte, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// gather merges any mix of trace files and (when addr is set) one live
// endpoint's /trace into a single timeline aligned on the trace_meta
// epochs.
func gather(addr string, files []string) (*obs.Merged, error) {
	var srcs []obs.Source
	if addr != "" {
		body, err := fetch(addr, "/trace")
		if err != nil {
			return nil, err
		}
		t, err := obs.ReadTrace(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("%s/trace: %w", addr, err)
		}
		srcs = append(srcs, obs.TraceSource(addr, t))
	}
	for _, f := range files {
		src, err := obs.FileSource(f)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, src)
	}
	return obs.Merge(srcs...)
}

// renderSources prints how each source was aligned during a merge.
func renderSources(m *obs.Merged) {
	fmt.Printf("%-28s %6s %6s %12s\n", "source", "node", "spans", "alignment")
	for _, s := range m.Sources {
		align := "meta epoch"
		if !s.Aligned {
			align = "UNALIGNED"
		}
		fmt.Printf("%-28s %6d %6d %12s\n", s.Name, s.Node, s.Spans, align)
	}
}

func writeMerged(m *obs.Merged, out string) error {
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := m.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("merged: %d spans from %d sources -> %s\n", len(m.Spans), len(m.Sources), out)
	return nil
}

// cmdBreakdown is the legacy default: per-node table + ASCII timeline
// (+ metrics when scraping a live run).
func cmdBreakdown(args []string) {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a live run's -metrics-addr endpoint instead of reading a trace file")
	width := fs.Int("width", 100, "timeline width in character cells")
	noTimeline := fs.Bool("no-timeline", false, "skip the ASCII step timeline")
	noMetrics := fs.Bool("no-metrics", false, "skip the metrics snapshot (live mode only)")
	fs.Parse(args)

	if *addr == "" && fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: inctrace [breakdown] [flags] trace.jsonl... | inctrace -addr host:port")
		fmt.Fprintln(os.Stderr, "subcommands: breakdown, metrics, merge, blame, calibrate, tune")
		fs.PrintDefaults()
		os.Exit(2)
	}
	m, err := gather(*addr, fs.Args())
	if err != nil {
		fatal(err)
	}
	if len(m.Spans) == 0 {
		fatal(fmt.Errorf("trace holds no spans (was the run started with -trace-out or -metrics-addr?)"))
	}

	bd := obs.Aggregate(m.Spans)
	fmt.Printf("per-node time breakdown (%d spans):\n\n", len(m.Spans))
	bd.RenderTable(os.Stdout)
	if !*noTimeline {
		fmt.Println()
		obs.RenderTimeline(os.Stdout, m.Spans, *width)
	}
	if *addr != "" && !*noMetrics {
		body, ferr := fetch(*addr, "/metrics")
		if ferr != nil {
			fatal(ferr)
		}
		snap, perr := obs.ParseSnapshot(body)
		if perr != nil {
			fatal(perr)
		}
		fmt.Println()
		fmt.Println("metrics snapshot:")
		obs.RenderMetrics(os.Stdout, snap)
	}
}

// cmdMetrics renders a metric snapshot (live or saved) with the
// histogram quantiles.
func cmdMetrics(args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape this live endpoint's /metrics")
	fs.Parse(args)

	var body []byte
	var err error
	switch {
	case *addr != "":
		body, err = fetch(*addr, "/metrics")
	case fs.NArg() == 1:
		body, err = os.ReadFile(fs.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: inctrace metrics (-addr host:port | metrics.json)")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	snap, err := obs.ParseSnapshot(body)
	if err != nil {
		fatal(err)
	}
	obs.RenderMetrics(os.Stdout, snap)
}

// cmdMerge merges per-node trace files (inctrain -trace-dir) into one
// timeline, aligned on their meta epochs.
func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "write the merged timeline as JSONL to this file")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: inctrace merge [-out merged.jsonl] trace_node0.jsonl...")
		os.Exit(2)
	}
	m, err := gather("", fs.Args())
	if err != nil {
		fatal(err)
	}
	renderSources(m)
	if err := writeMerged(m, *out); err != nil {
		fatal(err)
	}
	if *out == "" {
		fmt.Printf("merged: %d spans from %d sources (use -out to save)\n", len(m.Spans), len(m.Sources))
	}
}

// cmdBlame runs the per-iteration critical-path attribution and prints
// the gating summary, blame matrix, and straggler report.
func cmdBlame(args []string) {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a live endpoint instead of (or in addition to) trace files")
	minGap := fs.Duration("min-gap", 100*time.Microsecond, "iterations with max-min recv wait under this are balanced, not attributed")
	switchNode := fs.Int("switch-node", -1, "node id of the in-network aggregation switch, labelled \"(switch)\" when it gates (switch sim traces use id == workers)")
	fs.Parse(args)
	if *addr == "" && fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: inctrace blame [-min-gap 100us] [-switch-node N] (merged.jsonl... | -addr host:port)")
		os.Exit(2)
	}
	m, err := gather(*addr, fs.Args())
	if err != nil {
		fatal(err)
	}
	if len(m.Spans) == 0 {
		fatal(fmt.Errorf("no spans to attribute"))
	}
	r := obs.AttributeCriticalPath(m.Spans, *minGap)
	r.RenderBlame(os.Stdout)
	if node, share := r.Gating(); node >= 0 {
		label := ""
		if *switchNode >= 0 && node == *switchNode {
			label = " (switch)"
		}
		fmt.Printf("gating: node %d%s (%.0f%% of attributed iterations)\n", node, label, 100*share)
	} else {
		fmt.Println("gating: none")
	}
}

// cmdCalibrate diffs a simulated trace against a measured one, phase by
// phase, optionally gating on the largest relative error.
func cmdCalibrate(args []string) {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	measured := fs.String("measured", "", "measured trace JSONL (from a real run)")
	sim := fs.String("sim", "", "simulated trace JSONL (incbench -simtrace, or any RecordRaw producer)")
	maxRelErr := fs.Float64("max-rel-err", 0, "exit non-zero when any comparable phase's |rel err| exceeds this (0 = report only)")
	trim := fs.Float64("trim", 0, "drop the slowest fraction of measured cells per phase before averaging (outlier robustness)")
	fs.Parse(args)
	if *measured == "" || *sim == "" {
		fmt.Fprintln(os.Stderr, "usage: inctrace calibrate [-max-rel-err 0.15] [-trim 0.1] -measured run.jsonl -sim sim.jsonl")
		os.Exit(2)
	}
	read := func(path string) []obs.Span {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		t, err := obs.ReadTrace(f)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return t.Spans
	}
	c := obs.Calibrate(read(*measured), read(*sim), *trim)
	fmt.Printf("calibration: %s (measured) vs %s (sim), per-phase mean seconds per node-iteration\n\n", *measured, *sim)
	c.Render(os.Stdout)
	if c.Comparable() > 0 {
		fmt.Printf("\nmax |rel err| over %d comparable phase(s): %.1f%%\n", c.Comparable(), 100*c.MaxAbsRelErr())
	}
	if *maxRelErr > 0 {
		if c.Comparable() == 0 {
			fatal(fmt.Errorf("-max-rel-err set but no phase is comparable (one-sided or empty traces)"))
		}
		if e := c.MaxAbsRelErr(); e > *maxRelErr {
			fatal(fmt.Errorf("max |rel err| %.3f exceeds -max-rel-err %.3f", e, *maxRelErr))
		}
	}
}

// cmdTune closes the observe→model→tune loop offline: it fits the α-β-γ
// parameter set from one or more measured traces and sweeps the
// strategy × chunk × compression plan space through the calibrated
// models, with a what-if extrapolation to larger scales. Traces written
// by auto-tuned or -trace-out runs carry a self-describing tune_meta
// line; for raw traces the workload comes from the flags.
func cmdTune(args []string) {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	workers := fs.Int("workers", 0, "workload workers (default: the trace's tune_meta line)")
	modelBytes := fs.Int64("model-bytes", 0, "model size in bytes (default: tune_meta)")
	strategy := fs.String("strategy", "ring", "workload strategy for raw traces (ring|switch|...)")
	chunk := fs.Int("chunk", 0, "workload chunk floats for raw traces (0 = whole block)")
	compress := fs.Bool("compress", false, "traces are from compressed runs (contribute codec rate + ratio only)")
	ratio := fs.Float64("ratio", 0, "compression ratio override for compressed plan candidates")
	iters := fs.Int("iters", 0, "iterations per trace (default: inferred from spans)")
	warmup := fs.Int("warmup", 0, "leading iterations to drop from each trace")
	noCompress := fs.Bool("no-compress", false, "exclude compressed candidates from the sweep")
	whatIf := fs.String("what-if", "", "comma-separated node counts for the scaling extrapolation (default ladder when empty)")
	top := fs.Int("top", 8, "ranked plans to print")
	maxRelErr := fs.Float64("max-rel-err", 0, "exit non-zero when the fit's comm-phase residual exceeds this (0 = report only)")
	jsonOut := fs.Bool("json", false, "emit the fit, ranked plans and what-if table as JSON")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: inctrace tune [flags] trace.jsonl...")
		fs.PrintDefaults()
		os.Exit(2)
	}

	fallback := tune.Workload{
		Workers:     *workers,
		ModelBytes:  *modelBytes,
		Strategy:    *strategy,
		ChunkFloats: *chunk,
		Compress:    *compress,
		Ratio:       *ratio,
		Iters:       *iters,
	}
	var samples []tune.Sample
	for _, path := range fs.Args() {
		s, _, err := tune.ReadTraceFile(path, fallback)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		s.WarmupIters = *warmup
		if err := s.Workload.Validate(); err != nil {
			fatal(fmt.Errorf("%s: no tune_meta line and incomplete flags: %w", path, err))
		}
		samples = append(samples, s)
	}
	fit, err := tune.Fit(samples, netsim.Params{})
	if err != nil {
		fatal(err)
	}

	w0 := samples[0].Workload
	pl := &tune.Planner{
		Fit:        fit,
		Workers:    w0.Workers,
		ModelBytes: w0.ModelBytes,
		Ratio:      *ratio,
		NoCompress: *noCompress,
	}
	if *workers > 0 {
		pl.Workers = *workers
	}
	if *modelBytes > 0 {
		pl.ModelBytes = *modelBytes
	}
	plans := pl.Rank(pl.Candidates())
	rows := pl.WhatIf(parseNodeList(*whatIf))

	if *jsonOut {
		out := struct {
			Fit    *tune.Fitted  `json:"fit"`
			Plans  []tune.Plan   `json:"plans"`
			WhatIf []tune.WhatIf `json:"what_if"`
		}{fit, plans, rows}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fit.RenderFit(os.Stdout)
		fmt.Printf("\nranked plans (%d workers, %d MB model):\n", pl.Workers, pl.ModelBytes>>20)
		tune.RenderPlans(os.Stdout, plans, *top)
		fmt.Println("\nwhat-if scaling:")
		tune.RenderWhatIf(os.Stdout, rows)
	}
	if *maxRelErr > 0 && fit.MaxCommRelErr > *maxRelErr {
		fatal(fmt.Errorf("fit comm-phase residual %.3f exceeds -max-rel-err %.3f", fit.MaxCommRelErr, *maxRelErr))
	}
}

// parseNodeList parses "64,256,1024" (empty = nil, the default ladder).
func parseNodeList(s string) []int {
	if s == "" {
		return nil
	}
	var nodes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			fatal(fmt.Errorf("bad -what-if node count %q", part))
		}
		nodes = append(nodes, n)
	}
	return nodes
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "breakdown":
			cmdBreakdown(args[1:])
			return
		case "metrics":
			cmdMetrics(args[1:])
			return
		case "merge":
			cmdMerge(args[1:])
			return
		case "blame":
			cmdBlame(args[1:])
			return
		case "calibrate":
			cmdCalibrate(args[1:])
			return
		case "tune":
			cmdTune(args[1:])
			return
		}
	}
	// Legacy interface: `inctrace [flags] trace.jsonl` / `inctrace -addr ...`.
	cmdBreakdown(args)
}
