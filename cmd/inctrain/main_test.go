package main

import (
	"errors"
	"os"
	"os/exec"
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
