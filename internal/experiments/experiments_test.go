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
// EXPERIMENTS.md) is `incbench -run all` at the default seed. The
// closed-form experiments are pure functions of the model stack, so each
// must reproduce its section byte for byte — a moved digit is a changed
// model. fig7 prints wall-clock codec rates and the rest train; the
// substring tests below cover those.
func TestClosedFormOutputsMatchCheckedIn(t *testing.T) {
	raw, err := os.ReadFile("../../bench/incbench_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := string(raw)
	const rule = "\n################ "
	for _, name := range []string{"fig3", "table2", "fig12", "fig15", "switch", "ablation"} {
		e, _ := Lookup(name)
		header := fmt.Sprintf("%s%s: %s ################\n", rule, e.Name, e.Title)
		i := strings.Index(golden, header)
		if i < 0 {
			t.Errorf("%s: no section in bench/incbench_output.txt", name)
			continue
		}
		want := golden[i+len(header):]
		if j := strings.Index(want, rule); j >= 0 {
			want = want[:j]
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{Quick: true, Seed: 42}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := buf.String(); got != want {
			t.Errorf("%s differs from its checked-in section at %s", name, firstDiff(got, want))
		}
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

func TestFig3Output(t *testing.T) {
	out := runExperiment(t, "fig3")
	for _, want := range []string{"AlexNet", "VGG-16", "525", "communication", "%"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
}

func TestTable1Output(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, want := range []string{"Momentum", "0.9", "320000", "Weight decay"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := runExperiment(t, "table2")
	for _, want := range []string{"Forward pass", "Communicate", "148.71", "simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
}

func TestFig12Output(t *testing.T) {
	out := runExperiment(t, "fig12")
	for _, want := range []string{"WA+C", "INC+C", "comm reduction", "AlexNet", "VGG-16"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 output missing %q", want)
		}
	}
}

func TestFig13Output(t *testing.T) {
	out := runExperiment(t, "fig13")
	for _, want := range []string{"speedup", "epochs", "lossless reached"} {
		if !strings.Contains(strings.ToLower(out), want) {
			t.Errorf("fig13 output missing %q", want)
		}
	}
}

func TestFig15Output(t *testing.T) {
	out := runExperiment(t, "fig15")
	for _, want := range []string{"nodes", "analytic", "ResNet-50"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig15 output missing %q", want)
		}
	}
}

func TestFig5Output(t *testing.T) {
	out := runExperiment(t, "fig5")
	for _, want := range []string{"early", "middle", "final", "std"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

func TestFig7Output(t *testing.T) {
	out := runExperiment(t, "fig7")
	for _, want := range []string{"Snappy", "SZ", "16b-T", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q", want)
		}
	}
}

func TestTable3Output(t *testing.T) {
	out := runExperiment(t, "table3")
	for _, want := range []string{"2-bit", "34-bit", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestSwitchStrategyOutput(t *testing.T) {
	out := runExperiment(t, "switch")
	for _, want := range []string{"switch", "ring", "wa", "AlexNet", "throttled", "-switch-node"} {
		if !strings.Contains(out, want) {
			t.Errorf("switch output missing %q", want)
		}
	}
}

func TestAblationOutput(t *testing.T) {
	out := runExperiment(t, "ablation")
	for _, want := range []string{"burst width", "error-bound sweep", "compression legs", "in-NIC"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// Fig4 and Fig14 are the heaviest experiments (many full training runs);
// exercised once each to keep the suite minutes-scale.
func TestFig4Output(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy experiment")
	}
	out := runExperiment(t, "fig4")
	for _, want := range []string{"no truncation", "16b-T g only", "24b-T w & g", "HDC"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
}

func TestFig14Output(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy experiment")
	}
	out := runExperiment(t, "fig14")
	for _, want := range []string{"compression ratio", "relative", "INC(2^-10)", "22b-T"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig14 output missing %q", want)
		}
	}
}

func TestSelfTestPasses(t *testing.T) {
	var buf bytes.Buffer
	if err := SelfTest(&buf, quickOpts()); err != nil {
		t.Fatalf("self-test failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "all self-test checks passed") {
		t.Error("missing success footer")
	}
	if strings.Contains(buf.String(), "FAIL") {
		t.Errorf("self-test output contains FAIL:\n%s", buf.String())
	}
}
