package tune

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"inceptionn/internal/netsim"
	"inceptionn/internal/obs"
)

// fuzzWorkload describes a trace that carries no tune_meta line, as
// `inctrace tune -workers 3 -model-bytes 605224` would.
var fuzzWorkload = Workload{Workers: 3, ModelBytes: 605224, Strategy: "ring"}

// fitDoc renders a sample as the document a run writes: its tune meta
// line, then its spans.
func fitDoc(s Sample) []byte {
	var b bytes.Buffer
	Meta{Workload: s.Workload}.Append(&b)
	obs.WriteSpansJSONL(&b, obs.TraceMeta{}, s.Spans)
	return b.Bytes()
}

// withDur returns the sample with every span's duration mapped by f.
func withDur(s Sample, f func(int64) int64) Sample {
	spans := make([]obs.Span, 0, len(s.Spans))
	for _, sp := range s.Spans {
		sp.Dur = f(sp.Dur)
		spans = append(spans, sp)
	}
	s.Spans = spans
	return s
}

// FuzzFit feeds whatever ParseTrace accepts to Fit: the fit must either
// fail with an error or yield parameters, and plan predictions over every
// candidate, that are finite and non-negative. It must never panic.
func FuzzFit(f *testing.F) {
	paths := []string{
		filepath.Join("testdata", "golden_meta.jsonl"),
		filepath.Join("..", "obs", "testdata", "tuned.jsonl"),
	}
	for _, name := range append(probeFiles, holdoutFile) {
		paths = append(paths, filepath.Join("testdata", name))
	}
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	ring := syntheticSample(Workload{Workers: 3, ModelBytes: 605224, Strategy: "ring", Iters: 3}, 50e-6, 1e9, 4e8, 1e-3)
	single := ring
	single.Spans = nil
	for _, sp := range ring.Spans {
		if sp.Node == 0 {
			single.Spans = append(single.Spans, sp)
		}
	}
	comp := syntheticSample(Workload{Workers: 3, ModelBytes: 605224, Strategy: "ring", Iters: 2, Compress: true, Ratio: 3.2}, 50e-6, 1e9, 4e8, 1e-3)
	comp.Spans = append(comp.Spans, obs.Span{Node: 0, Iter: -1, Phase: obs.PhaseCompress, Dur: 4e6})
	for _, s := range []Sample{
		ring,
		{Workload: ring.Workload}, // no spans
		withDur(ring, func(int64) int64 { return 0 }),
		withDur(ring, func(d int64) int64 { return -d }),
		single,
		syntheticSample(Workload{Workers: 2, ModelBytes: 4096, Strategy: "ring", ChunkFloats: 256, Iters: 1}, 50e-6, 1e9, 4e8, 1e-3),
		comp,
	} {
		f.Add(fitDoc(s))
	}
	f.Add(append(fitDoc(Sample{Workload: ring.Workload}), `{"node":0,"iter":0,"phase":"send","start_ns":0,"dur_ns":NaN}`+"\n"...))
	f.Add([]byte(`{"node":0,"iter":0,"phase":"send","start_ns":0,"dur_ns":1000}` + "\n"))

	f.Fuzz(func(t *testing.T, doc []byte) {
		spans, _, meta, err := ParseTrace(bytes.NewReader(doc))
		if err != nil {
			return
		}
		s := Sample{Workload: fuzzWorkload, Spans: spans}
		if meta != nil {
			s.Workload = meta.Workload
		}
		fit, err := Fit([]Sample{s}, netsim.Params{})
		if err != nil {
			return
		}
		check := func(name string, v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%s = %v, want finite and non-negative", name, v)
			}
		}
		p := fit.Params
		for name, v := range map[string]float64{
			"LineRate": p.LineRate, "StreamEfficiency": p.StreamEfficiency, "PerPacketTime": p.PerPacketTime,
			"Latency": p.Latency, "SumRate": p.SumRate, "SwitchSumRate": p.SwitchSumRate,
			"SwitchMemBytes": float64(p.SwitchMemBytes), "ComputeSec": fit.ComputeSec, "CodecRate": fit.CodecRate,
			"Ratio": fit.Ratio, "OverheadSec": fit.OverheadSec, "MaxCommRelErr": fit.MaxCommRelErr,
		} {
			check(name, v)
		}
		for ph, v := range fit.Scale {
			check("Scale["+obs.Phase(ph).String()+"]", v)
		}
		pl := &Planner{Fit: fit, Workers: s.Workload.Workers, ModelBytes: s.Workload.ModelBytes, SkipCrossCheck: true}
		for _, opt := range pl.Candidates() {
			plan := pl.Predict(opt)
			check(opt.String()+" PredIterSec", plan.PredIterSec)
			check(opt.String()+" PredExchangeSec", plan.PredExchangeSec)
			check(opt.String()+" PredCodecSec", plan.PredCodecSec)
		}
	})
}
