package soak

import (
	"flag"
	"testing"
)

var (
	soakTrials = flag.Int("soak-trials", 0, "number of chaos soak trials (0 = one sweep of every scenario kind)")
	soakSeed   = flag.Int64("soak-seed", 1, "master seed for the chaos soak planner")
	soakBudget = flag.Duration("soak-budget", 0, "optional wall-clock budget for the soak (0 = unbounded)")
)

// TestSoak runs the randomized chaos soak. The default run is one sweep
// over every scenario kind so plain `go test ./...` stays fast;
// `make soaktest` widens it with -soak-trials / -soak-seed / -soak-budget.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	trials, err := Run(Options{Trials: *soakTrials, Seed: *soakSeed, Budget: *soakBudget}, t.Logf)
	if err != nil {
		t.Fatalf("soak failed after %d completed trials: %v", len(trials)-1, err)
	}
	if len(trials) == 0 {
		t.Fatal("soak ran no trials")
	}
	kinds := map[string]int{}
	for _, tr := range trials {
		kinds[tr.Kind]++
	}
	t.Logf("soak: %d trials ok across %d scenario kinds", len(trials), len(kinds))
}

// TestSoakDeterministicPlan pins reproducibility: the same (seed, index)
// must draw the same scenario parameters, so a failed trial can be
// replayed in isolation.
func TestSoakDeterministicPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	run := func() []Trial {
		trials, err := Run(Options{Trials: 2, Seed: 99}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return trials
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Desc != b[i].Desc {
			t.Fatalf("trial %d not reproducible:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}
