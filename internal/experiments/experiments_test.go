package experiments

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

func quickOpts() Options {
	return Options{Quick: true, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be present.
	want := []string{"fig3", "fig4", "fig5", "fig7", "table1", "table2",
		"fig12", "fig13", "fig14", "table3", "fig15", "switch", "ablation"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].Name, name)
		}
		if reg[i].Run == nil || reg[i].Title == "" {
			t.Errorf("registry entry %s incomplete", name)
		}
	}
	if _, ok := Lookup("fig12"); !ok {
		t.Error("Lookup(fig12) failed")
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Error("Lookup(nonexistent) succeeded")
	}
	if len(Names()) != len(want) {
		t.Error("Names() incomplete")
	}
}

func runExperiment(t *testing.T, name string) string {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %s not found", name)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf, quickOpts()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out := buf.String()
	if len(out) < 100 {
		t.Fatalf("%s produced only %d bytes", name, len(out))
	}
	return out
}

// TestClosedFormOutputsMatchCheckedIn: bench/incbench_output.txt (cited by
// EXPERIMENTS.md) is `incbench -run all` at the default seed, quick scale.
// Every section but fig7 is a pure function of that seed — the closed-form
// model stack, and the training runs, whose arithmetic is deterministic —
// so each must reproduce its section byte for byte: a moved digit is a
// changed model or a changed training step. fig7 prints wall-clock codec
// rates; TestFig7Output covers it. The two training-heavy sections skip
// under -short.
func TestClosedFormOutputsMatchCheckedIn(t *testing.T) {
	raw, err := os.ReadFile("../../bench/incbench_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	const rule = "\n################ "
	heavy := map[string]bool{"fig4": true, "fig14": true}
	for _, e := range Registry() {
		if e.Name == "fig7" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			if heavy[e.Name] && testing.Short() {
				t.Skip("training-heavy experiment")
			}
			header := fmt.Sprintf("%s%s: %s ################\n", rule, e.Name, e.Title)
			i := strings.Index(golden, header)
			if i < 0 {
				t.Fatalf("no %s section in bench/incbench_output.txt", e.Name)
			}
			want := golden[i+len(header):]
			if j := strings.Index(want, rule); j >= 0 {
				want = want[:j]
			}
			var buf bytes.Buffer
			if err := e.Run(&buf, Options{Quick: true, Seed: 42}); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != want {
				t.Errorf("%s differs from its checked-in section at %s", e.Name, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first line at which two outputs part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one ends early (got %d lines, want %d)", min(len(g), len(w))+1, len(g), len(w))
}

func TestFig7Output(t *testing.T) {
	out := runExperiment(t, "fig7")
	for _, want := range []string{"Snappy", "SZ", "16b-T", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q", want)
		}
	}
}
