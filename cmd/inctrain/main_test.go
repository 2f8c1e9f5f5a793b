package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary double as the command: run with "inctrain"
// as its first argument, it is inctrain on the arguments after that.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "inctrain" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStepTimeoutReachesEveryRunner: -step-timeout bounds the exchange of
// every in-process collective, not only the TCP and switch ones,
// so a deadline no exchange can meet fails the run instead of being
// dropped.
func TestStepTimeoutReachesEveryRunner(t *testing.T) {
	for _, algo := range []string{"ring", "wa", "tree2", "ring2"} {
		t.Run(algo, func(t *testing.T) {
			out, err := exec.Command(os.Args[0], "inctrain", "-model", "hdc-small", "-algo", algo,
				"-workers", "4", "-group", "2", "-iters", "3", "-samples", "200", "-eval", "3",
				"-step-timeout", "1ns").CombinedOutput()
			if err == nil {
				t.Fatalf("a 1ns step deadline trained and exited 0:\n%s", out)
			}
			if !strings.Contains(string(out), "deadline exceeded") {
				t.Fatalf("exit %v without a deadline error:\n%s", err, out)
			}
		})
	}
}

// TestStepTimeoutDefault: the usage text gives -step-timeout a default of
// 10s, so a run whose frame is dropped fails after it instead of hanging;
// 0 still means no deadline.
func TestStepTimeoutDefault(t *testing.T) {
	out, _ := exec.Command(os.Args[0], "inctrain", "-h").CombinedOutput()
	_, usage, ok := strings.Cut(string(out), "-step-timeout duration\n")
	line, _, _ := strings.Cut(usage, "\n")
	if !ok || !strings.Contains(line, "(0 = none)") || !strings.HasSuffix(line, "(default 10s)") {
		t.Fatalf("-step-timeout usage is %q, want a 10s default and 0 meaning none:\n%s", line, out)
	}
}

// TestEveryAlgoRunsOverTCP: -tcp is a plane, not a runner — the
// worker-aggregator baseline trains over loopback sockets like the ring.
func TestEveryAlgoRunsOverTCP(t *testing.T) {
	out, err := exec.Command(os.Args[0], "inctrain", "-model", "hdc-small", "-tcp", "-algo", "wa",
		"-workers", "3", "-iters", "3", "-samples", "200", "-eval", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("-tcp -algo wa: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "wa over loopback TCP") || !strings.Contains(string(out), "final: accuracy") {
		t.Fatalf("-tcp -algo wa did not train over TCP:\n%s", out)
	}
}

// TestChaosRequiresTCP: the in-process fabric has no wire to fault, so a
// chaos flag without -tcp is a usage error (exit 2), not a clean run.
func TestChaosRequiresTCP(t *testing.T) {
	out, err := exec.Command(os.Args[0], "inctrain", "-model", "hdc-small", "-chaos-drop", "0.01",
		"-workers", "2", "-iters", "1", "-samples", "100", "-eval", "1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-chaos-drop without -tcp: err = %v, want exit status 2\n%s", err, out)
	}
}

// TestBadValuesFailByName: a flag value no run could honour fails before
// training, naming its flag or the option it sets — a usage error exits 2,
// an option train.Run refuses exits 1.
func TestBadValuesFailByName(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-trace-cap", "0", "-trace-out", filepath.Join(t.TempDir(), "t.jsonl")}, 2, "-trace-cap"},
		{[]string{"-straggle", "9:1ms"}, 1, "Straggler"},
		{[]string{"-algo", "switch", "-switch-chunk", "-7"}, 1, "SwitchChunk"},
		{[]string{"-step-timeout", "-1s"}, 1, "StepTimeout"},
		{[]string{"-iters", "-5"}, 1, "iters"},
	} {
		args := append([]string{"inctrain", "-model", "hdc-small", "-workers", "4", "-samples", "100", "-eval", "1"}, tc.args...)
		out, err := exec.Command(os.Args[0], args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != tc.code || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: err = %v, want exit status %d naming %s\n%s", tc.args, err, tc.code, tc.want, out)
		}
	}
}

// TestDivergedRunKeepsItsRecord: a learning rate that sends the loss to
// NaN still saves the metrics record, with train_loss as "NaN", and a
// record that cannot be written fails the run instead of exiting 0.
func TestDivergedRunKeepsItsRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	args := []string{"inctrain", "-model", "hdc-small", "-lr", "1e30", "-workers", "2",
		"-iters", "2", "-samples", "100", "-eval", "2"}
	out, err := exec.Command(os.Args[0], append(args, "-metrics-out", path)...).CombinedOutput()
	if err != nil {
		t.Fatalf("diverged run: %v\n%s", err, out)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no metrics record: %v\n%s", err, out)
	}
	if !strings.Contains(string(body), `"train_loss": "NaN"`) {
		t.Fatalf("record does not carry the NaN loss:\n%s", body)
	}

	out, err = exec.Command(os.Args[0], append(args, "-metrics-out", filepath.Join(dir, "missing", "m.json"))...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("unwritable -metrics-out: err = %v, want exit status 1\n%s", err, out)
	}
}
