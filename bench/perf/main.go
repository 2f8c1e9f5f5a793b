// Command perf is the repository's one benchmark: five fixed training
// workloads measured end to end, a per-layer budget under them, and a traced
// run that says which layer an end-to-end change came from. See README.md.
//
//	go run ./bench/perf                      every workload, both passes, one report
//	go run ./bench/perf -workload NAME -seed N -seconds S -trace 0|1
//	                                         one workload in this process; the last
//	                                         line of standard output is the result
//	go run ./bench/perf -sets N              N end-to-end sets on N seeds: the noise floor
//	go run ./bench/perf -smoke               2 iterations of everything, for the tests
//	go run ./bench/perf -manifest            print BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// procStart approximates process start: set-up time of a workload's first
// repeat is counted from here.
var procStart = time.Now()

type config struct {
	seed    int64
	seconds int
	out     string
	smoke   bool
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print its result line")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics from untraced repeats, 1 = per-layer metrics from a traced run and the microbenchmarks")
		sets     = flag.Int("sets", 0, "run the end-to-end pass of every workload on this many consecutive seeds and print each metric's spread")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		c        config
	)
	flag.Int64Var(&c.seed, "seed", 42, "generates datasets, model initialisation and gradient vectors")
	flag.IntVar(&c.seconds, "seconds", refSeconds, "sizes the fixed iteration counts: a workload's timed regions add up to about this long on the reference box")
	flag.StringVar(&c.out, "out", "", "directory for results JSON and trace JSONL (default: a new temporary directory)")
	flag.BoolVar(&c.smoke, "smoke", false, "2 iterations per run and single-call microbenchmarks: exercises every path, measures nothing")
	flag.Parse()

	if *manifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest()); err != nil {
			fatal(err)
		}
		return
	}
	if c.seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if c.out == "" {
		dir, err := os.MkdirTemp("", "perf-")
		if err != nil {
			fatal(err)
		}
		c.out = dir
	} else if err := os.MkdirAll(c.out, 0o755); err != nil {
		fatal(err)
	}

	var ok bool
	switch {
	case *name != "":
		w, found := findWorkload(*name)
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		ok = runOne(os.Stdout, w, c, *trace)
	case *sets > 0:
		ok = runSets(os.Stdout, c, *sets)
	default:
		ok = runAll(os.Stdout, c)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(1)
}

const loopbackNote = "all traffic crosses in-process channels or the host loopback, never a real link"

// runOne measures one workload in this process and prints its result line
// last. It reports whether every operation succeeded.
func runOne(out io.Writer, w workload, c config, pass int) bool {
	w = w.scaled(c.seconds)
	if c.smoke {
		w.warmup, w.timed = 1, 1
	}
	fmt.Fprintf(out, "== %s  seed %d  %d workers  %d warm-up + %d timed iterations per repeat  (%s)\n",
		w.name, c.seed, workers, w.warmup, w.timed, loopbackNote)
	var o ops
	var v values
	var err error
	if pass == 1 {
		v, err = perLayerPass(out, w, c, &o)
	} else {
		v, err = endToEndPass(out, w, c, &o)
	}
	defs := metricsOf(pass)
	if err != nil {
		o.compare(false, "%v", err)
	}
	for _, n := range o.notes {
		fmt.Fprintln(out, "FAILED:", n)
	}
	got, missing := readings(defs, v)
	if len(missing) > 0 {
		// Nothing to report: the run did not get far enough to measure.
		fmt.Fprintf(os.Stderr, "perf: %s: no value for %s\n", w.name, strings.Join(missing, ", "))
		return false
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: got}
	for _, m := range defs {
		printMetric(out, m, v[m.name])
	}
	fmt.Fprintf(out, "ops: %d attempted, %d failed; wall %.1f s; files in %s\n", o.attempted, o.failed, time.Since(procStart).Seconds(), c.out)
	if err := writeJSON(filepath.Join(c.out, fmt.Sprintf("result_%s_trace%d.json", w.name, pass)), line); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return false
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return false
	}
	fmt.Fprintf(out, "%s\n", b)
	return line.Correct
}

// metricsOf returns the metrics a pass reports: end-to-end with -trace 0,
// per-layer with -trace 1.
func metricsOf(pass int) []metric {
	if pass == 1 {
		return perLayer
	}
	return endToEnd
}

func printMetric(out io.Writer, m metric, x float64) {
	fmt.Fprintf(out, "  %-38s %14.6g %-10s (%s is better)\n", m.name, x, m.unit, m.better)
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// endToEndPass runs w's untraced repeats and the correctness comparisons.
func endToEndPass(out io.Writer, w workload, c config, o *ops) (values, error) {
	in := makeInputs(w, c.seed)
	per := map[string][]float64{}
	var losses []float64
	n := repeats
	if c.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		begin := time.Now()
		if i == 0 {
			begin = procStart
		}
		r := runRepeat(w, in, begin, decor{})
		o.iterations(r)
		if r.err != nil {
			return nil, nil // counted as failed iterations above
		}
		for k, x := range r.endToEndValues() {
			per[k] = append(per[k], x)
		}
		losses = append(losses, r.res.finalLoss)
	}
	// Read before the comparison runs below, which are not the workload.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	v := values{"peak_rss_mb": rss}
	for k, xs := range per {
		v[k] = median(xs)
		fmt.Fprintf(out, "  repeats  %-22s %v\n", k, xs)
	}
	for _, l := range losses[1:] {
		o.compare(l == losses[0], "%s: final_loss differs between repeats of one seed: %v", w.name, losses)
	}
	if w.compress && !c.smoke {
		// Lossy exchange must still train: an untrained 10-class model's
		// loss is ln 10. (Two smoke iterations cannot get below it.)
		l := losses[0]
		o.compare(l == l && l < math.Ln10, "%s: loss after %d compressed iterations is %g, no better than chance", w.name, w.warmup+w.timed, l)
	}
	checkAgainstReference(w, in, o)
	return v, nil
}

// compareIters is the length of the short runs whose final weights are
// compared bit for bit.
const compareIters = 8

// checkAgainstReference checks the contract the runners share: any fabric,
// collective or chunking lands on the weights of the in-process whole-block
// ring, bit for bit.
func checkAgainstReference(w workload, in inputs, o *ops) {
	short := func(w workload) *repeat {
		w.warmup = 1
		if w.timed > compareIters-1 { // a smoke run is shorter still
			w.timed = compareIters - 1
		}
		r := runRepeat(w, in, time.Now(), decor{})
		o.iterations(r)
		return r
	}
	got, want := short(w), short(w.reference())
	if got.err != nil || want.err != nil {
		return
	}
	same := len(got.res.finalWeights) == len(want.res.finalWeights) && len(got.res.finalWeights) > 0
	diff := 0
	if same {
		for i, x := range got.res.finalWeights {
			if x != want.res.finalWeights[i] {
				diff++
			}
		}
	}
	o.compare(same && diff == 0, "%s: %d of %d final weights differ from the in-process whole-block ring after %d iterations",
		w.name, diff, len(want.res.finalWeights), len(got.hooks))
}

// perLayerPass runs w once untraced and once traced, then the
// microbenchmarks. No end-to-end number is taken from here.
func perLayerPass(out io.Writer, w workload, c config, o *ops) (values, error) {
	in := makeInputs(w, c.seed)
	base := runRepeat(w, in, procStart, decor{})
	o.iterations(base)
	if base.err != nil {
		return nil, nil
	}
	v := base.runValues()
	fmt.Fprintf(out, "  train.iter_s_p95 is over %d intervals of one untraced repeat\n", w.timed)

	tv, err := tracedRepeat(w, in, c, o)
	if err != nil || tv == nil {
		return nil, err
	}
	for k, x := range tv {
		v[k] = x
	}
	v["trace.overhead_frac"] = tv["traced.iter_s_p50"]/median(base.iterSeconds()) - 1
	delete(v, "traced.iter_s_p50")

	m, err := runMicro(c.seed, c.smoke, o)
	if err != nil {
		return nil, err
	}
	for k, x := range m.v {
		v[k] = x
	}
	return v, writeJSON(filepath.Join(c.out, "micro_min_"+w.name+".json"), m.min)
}

// runAll runs both passes of every workload, each in its own process so
// that peak_rss_mb and setup_s belong to one workload, and prints one report.
func runAll(out io.Writer, c config) bool {
	t0 := time.Now()
	printMachine(out)
	ok := true
	microSeen := map[string][]float64{}
	for _, w := range workloads {
		for pass := 0; pass <= 1; pass++ {
			line, text, err := runChild(w.name, c, c.seed, pass)
			if err != nil {
				fmt.Fprintf(out, "%s -trace %d: %v\n%s", w.name, pass, err, text)
				ok = false
				continue
			}
			ok = ok && line.Correct
			fmt.Fprintf(out, "\n== %s  -trace %d  ops: %d attempted, %d failed\n", w.name, pass, line.Attempted, line.Failed)
			for _, m := range metricsOf(pass) {
				x := line.Metrics[m.name].Value
				if !m.perRun {
					microSeen[m.name] = append(microSeen[m.name], x)
					continue
				}
				printMetric(out, m, x)
			}
		}
	}
	fmt.Fprintf(out, "\n== layer microbenchmarks (median over the %d per-workload processes)\n", len(workloads))
	for _, m := range perLayer {
		if !m.perRun {
			printMetric(out, m, median(microSeen[m.name]))
		}
	}
	fmt.Fprintf(out, "\n%s\nresults and traces in %s\ntotal wall time %.1f s\n", loopbackNote, c.out, time.Since(t0).Seconds())
	return ok
}

// runSets measures the noise floor: the end-to-end pass of every workload
// on n consecutive seeds, and per metric the distance between the quartiles
// of the n values as a share of their median. The bounds in metrics.go are
// set from this table.
func runSets(out io.Writer, c config, n int) bool {
	t0 := time.Now()
	printMachine(out)
	ok := true
	type key struct{ workload, metric string }
	seen := map[key][]float64{}
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			line, text, err := runChild(w.name, c, c.seed+int64(i), 0)
			if err != nil {
				fmt.Fprintf(out, "%s seed %d: %v\n%s", w.name, c.seed+int64(i), err, text)
				ok = false
				continue
			}
			ok = ok && line.Correct
			for _, m := range endToEnd {
				seen[key{w.name, m.name}] = append(seen[key{w.name, m.name}], line.Metrics[m.name].Value)
			}
		}
		fmt.Fprintf(out, "set %d of %d done at %.0f s\n", i+1, n, time.Since(t0).Seconds())
	}
	noise := map[string]map[string]float64{}
	fmt.Fprintf(out, "\n%-28s %-22s %14s %10s %8s   %s\n", "workload", "metric", "median", "spread", "bound", "values, in seed order")
	for _, w := range workloads {
		noise[w.name] = map[string]float64{}
		for _, m := range endToEnd {
			xs := seen[key{w.name, m.name}]
			s := spread(xs)
			noise[w.name][m.name] = s
			fmt.Fprintf(out, "%-28s %-22s %14.6g %10.4f %8.2f   %.6g\n", w.name, m.name, median(xs), s, m.bound, xs)
		}
	}
	if err := writeJSON(filepath.Join(c.out, "noise.json"), noise); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		ok = false
	}
	fmt.Fprintf(out, "\n%d sets, seeds %d..%d; results in %s; total wall time %.1f s\n", n, c.seed, c.seed+int64(n)-1, c.out, time.Since(t0).Seconds())
	return ok
}

// runChild re-executes this binary for one workload and one pass and waits
// for it to end.
func runChild(name string, c config, seed int64, pass int) (resultLine, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, "", err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(c.seconds), "-trace", fmt.Sprint(pass), "-out", c.out}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	text := stdout.String()
	line, err := lastLine(text)
	if err != nil {
		if runErr != nil {
			err = runErr
		}
		return resultLine{}, text, err
	}
	return line, text, nil
}

// lastLine parses the result line off the end of a run's standard output.
func lastLine(text string) (resultLine, error) {
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return resultLine{}, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

func printMachine(out io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(out, "machine: nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}
