package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 4, 3, 2, 9, 8, 7, 6, 5} // 1..10, unsorted
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(xs, 95); !near(got, 9.55) {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 8, 4, 2, 1})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if xs[0] != 10 {
		t.Error("the input was reordered")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNs: 100, EndNs: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{StartNs: 110, EndNs: 120}, {StartNs: 150, EndNs: 180}}, 60},
		{"overlapping children are covered once", []span{{StartNs: 110, EndNs: 130}, {StartNs: 120, EndNs: 150}}, 60},
		{"nested", []span{{StartNs: 110, EndNs: 150}, {StartNs: 120, EndNs: 130}}, 60},
		{"sticking out both ends", []span{{StartNs: 90, EndNs: 110}, {StartNs: 190, EndNs: 250}}, 80},
		{"outside", []span{{StartNs: 0, EndNs: 50}, {StartNs: 300, EndNs: 400}}, 100},
		{"covering", []span{{StartNs: 0, EndNs: 400}}, 0},
		{"unsorted", []span{{StartNs: 150, EndNs: 180}, {StartNs: 110, EndNs: 120}}, 60},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTraceShares checks the share arithmetic on a hand-made trace: two
// timed iterations of 100 ns on worker 0.
func TestTraceShares(t *testing.T) {
	tr := &tracer{workload: "w"}
	add := func(s span) int64 {
		tr.add(s)
		return int64(len(tr.spans))
	}
	p1 := add(span{Layer: layerTrain, Op: "iter", StartNs: 0, EndNs: 100})
	p2 := add(span{Layer: layerTrain, Op: "iter", StartNs: 100, EndNs: 200})
	warm := add(span{Layer: layerTrain, Op: "iter", StartNs: -100, EndNs: 0})
	add(span{Layer: layerData, Op: "sample", StartNs: 10, EndNs: 20, Parent: p1})
	add(span{Layer: layerNN, Op: opForward + "0.Dense", StartNs: 20, EndNs: 40, Parent: p1})
	add(span{Layer: layerNN, Op: opBackward + "0.Dense", StartNs: 40, EndNs: 70, Parent: p1})
	add(span{Layer: layerNN, Op: opForward + "0.Dense", StartNs: 120, EndNs: 140, Parent: p2})
	add(span{Layer: layerNN, Op: opForward + "0.Dense", StartNs: -50, EndNs: -10, Parent: warm}) // warm-up: not counted
	add(span{Layer: layerNN, Op: opForward + "0.Dense", Replica: 1, StartNs: 20, EndNs: 90})     // another replica: not a child
	add(span{Layer: layerCodec, Op: "process", Replica: -1, StartNs: 150, EndNs: 190})           // 40 ns over 4 workers
	add(span{Layer: layerCodec, Op: "process", Replica: -1, StartNs: 250, EndNs: 290})           // after the timed region
	v := tr.traceShares(map[int64]bool{p1: true, p2: true}, 2)
	want := values{
		"trace.share_data":           10.0 / 200,
		"trace.share_nn_forward":     40.0 / 200,
		"trace.share_nn_backward":    30.0 / 200,
		"trace.share_codec":          10.0 / 200,
		"trace.share_rest":           120.0/200 - 10.0/200,
		"trace.codec_calls_per_iter": 0.5,
	}
	for k, x := range want {
		if !near(v[k], x) {
			t.Errorf("%s = %v, want %v", k, v[k], x)
		}
	}
	if len(v) != len(want) {
		t.Errorf("got %d values, want %d: %v", len(v), len(want), v)
	}
}

func TestAddIterationsFindsParents(t *testing.T) {
	tr := &tracer{workload: "w"}
	r := &repeat{w: workload{warmup: 2, timed: 2}}
	for i := 0; i < 4; i++ {
		r.hooks = append(r.hooks, tr.epoch.Add(time.Duration(100*i)))
	}
	tr.add(span{Replica: 0, Iter: -1, Layer: layerNN, Op: opForward + "x", StartNs: 10, EndNs: 50})   // inside warm-up iteration 1
	tr.add(span{Replica: 3, Iter: -1, Layer: layerNN, Op: opForward + "x", StartNs: 210, EndNs: 250}) // other replica
	tr.add(span{Replica: 0, Iter: -1, Layer: layerNN, Op: opForward + "x", StartNs: 280, EndNs: 320}) // straddles the last hook
	tr.add(span{Replica: 0, Iter: -1, Layer: layerNN, Op: opForward + "x", StartNs: 400, EndNs: 450}) // after the last hook
	timed, straddling := tr.addIterations(r)
	if len(timed) != 2 || straddling != 1 {
		t.Fatalf("timed %v, straddling %d; want 2 timed parents and 1 straddling span", timed, straddling)
	}
	s := tr.spans
	if s[0].Iter != 1 || s[0].Parent == 0 || timed[s[0].Parent] {
		t.Errorf("span in warm-up iteration 1: %+v, timed %v", s[0], timed)
	}
	if s[1].Iter != 3 || s[1].Parent != 0 {
		t.Errorf("span of another replica must get an iteration but no parent: %+v", s[1])
	}
	if !timed[s[2].Parent] {
		t.Errorf("span in timed iteration 3: %+v", s[2])
	}
	if s[3].Iter != -1 || s[3].Parent != 0 {
		t.Errorf("span after the last hook: %+v", s[3])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndBounds(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.timed < minTimed || w.warmup < 1 {
			t.Errorf("%s: %d+%d iterations", w.name, w.warmup, w.timed)
		}
		if s := w.scaled(1); s.timed != minTimed || s.warmup < 1 {
			t.Errorf("%s scaled to 1 s: %d+%d iterations, want the floor of %d timed", w.name, s.warmup, s.timed, minTimed)
		}
		if s := w.scaled(2 * refSeconds); s.timed != 2*w.timed {
			t.Errorf("%s scaled to twice the reference: %d timed, want %d", w.name, s.timed, 2*w.timed)
		}
	}
	var setup *metric
	for i, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		name(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if i < len(endToEnd) {
			if m.bound <= 0 || m.bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
			}
			if m.name == "setup_s" {
				setup = &endToEnd[i]
			}
		} else if m.bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.name)
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range endToEnd {
		if m.bound > setup.bound {
			t.Errorf("%s has a wider bound than setup_s", m.name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the manifest's limits", len(workloads), len(endToEnd), len(perLayer))
	}
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate it with `go run ./bench/perf -manifest > BENCHMARK.json`\n got %+v\nwant %+v", onDisk, want)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}

// smokeRun drives one pass of one workload through runOne and returns the
// parsed result line.
func smokeRun(t *testing.T, w workload, pass int) resultLine {
	t.Helper()
	var out bytes.Buffer
	ok := runOne(&out, w, config{seed: 7, seconds: refSeconds, out: t.TempDir(), smoke: true}, pass)
	line, err := lastLine(out.String())
	if err != nil || !ok {
		t.Fatalf("%s -trace %d: ok=%v err=%v\n%s", w.name, pass, ok, err, out.String())
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Fatalf("%s -trace %d: %d of %d operations failed\n%s", w.name, pass, line.Failed, line.Attempted, out.String())
	}
	return line
}

// emitted checks that a result line carries exactly the metrics of defs,
// with their units.
func emitted(t *testing.T, what string, line resultLine, defs []metric) {
	t.Helper()
	var got, want []string
	for n := range line.Metrics {
		got = append(got, n)
	}
	for _, m := range defs {
		want = append(want, m.name)
		if r, ok := line.Metrics[m.name]; ok && (r.Unit != m.unit || math.IsNaN(r.Value) || math.IsInf(r.Value, 0)) {
			t.Errorf("%s: %s = %v %q, want a finite number of %q", what, m.name, r.Value, r.Unit, m.unit)
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: emitted %v\nwant %v", what, got, want)
	}
}

// TestSmoke drives every workload for 2 iterations: the untraced repeats
// with their correctness comparisons, and the decorators end to end. One
// workload also runs the whole per-layer pass, microbenchmarks included.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real training runs")
	}
	for _, w := range workloads {
		line := smokeRun(t, w, 0)
		emitted(t, w.name+" -trace 0", line, endToEnd)
		for _, m := range endToEnd {
			if line.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, line.Metrics[m.name].Value)
			}
		}
	}
	for _, w := range workloads {
		sw := w
		sw.warmup, sw.timed = 1, 1
		var o ops
		c := config{seed: 7, seconds: refSeconds, out: t.TempDir(), smoke: true}
		v, err := tracedRepeat(sw, makeInputs(sw, c.seed), c, &o)
		if err != nil || o.failed != 0 {
			t.Fatalf("%s: traced repeat: err %v, failures %v", w.name, err, o.notes)
		}
		codec := v["trace.codec_calls_per_iter"]
		if inProcCodec := w.compress && !w.tcp; (codec > 0) != inProcCodec {
			t.Errorf("%s: %v codec calls per iteration through the WireProcessor decorator", w.name, codec)
		}
		if (v["obs.share_compress"] > 0) != w.compress {
			t.Errorf("%s: obs.share_compress = %v", w.name, v["obs.share_compress"])
		}
		if _, err := os.Stat(c.out + "/trace_" + w.name + ".jsonl"); err != nil {
			t.Errorf("%s: no trace written: %v", w.name, err)
		}
	}
	w, _ := findWorkload("hdc_ring_tcp_comp")
	emitted(t, w.name+" -trace 1", smokeRun(t, w, 1), perLayer)
}
