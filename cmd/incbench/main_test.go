package main

import (
	"math"
	"path/filepath"
	"testing"
)

// TestSimTraceRejectsOutOfRangeFlags: a -simtrace flag outside its range is
// an error before anything is simulated or written, not a panic inside the
// event simulator or a trace of negative-size gradients.
func TestSimTraceRejectsOutOfRangeFlags(t *testing.T) {
	valid := simTraceConfig{strategy: "ring", workers: 4, iters: 2, bytes: 4096, compute: 1e-3}
	for _, tc := range []struct {
		name string
		edit func(*simTraceConfig)
	}{
		{"negative straggle", func(c *simTraceConfig) { c.straggle = "1:-50ms" }},
		{"negative compute", func(c *simTraceConfig) { c.compute = -1 }},
		{"negative bytes", func(c *simTraceConfig) { c.bytes = -5 }},
		{"zero iters", func(c *simTraceConfig) { c.iters = 0 }},
		{"negative switch rate", func(c *simTraceConfig) { c.switchRate = -1 }},
		{"NaN switch rate", func(c *simTraceConfig) { c.switchRate = math.NaN() }},
		{"-Inf switch rate", func(c *simTraceConfig) { c.switchRate = math.Inf(-1) }},
		{"negative switch memory", func(c *simTraceConfig) { c.switchMem = -8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := valid
			tc.edit(&c)
			if err := runSimTrace(filepath.Join(t.TempDir(), "sim.jsonl"), c); err == nil {
				t.Fatalf("runSimTrace(%+v) = nil, want an error", c)
			}
		})
	}
	if err := runSimTrace(filepath.Join(t.TempDir(), "sim.jsonl"), valid); err != nil {
		t.Fatalf("runSimTrace(%+v) = %v, want nil", valid, err)
	}
}
