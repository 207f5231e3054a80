package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs semflow's main instead of the tests when SEMFLOW_MAIN is
// set, so a test can drive the command line through the test binary itself.
func TestMain(m *testing.M) {
	if os.Getenv("SEMFLOW_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAlphaOutOfRangeExitsTwo: a filter strength outside [0, 1] is a usage
// error, refused before any solver is built, as semflowd refuses it with 400.
func TestAlphaOutOfRangeExitsTwo(t *testing.T) {
	for _, alpha := range []string{"-0.1", "1.5"} {
		cmd := exec.Command(os.Args[0], "-case", "convection", "-nel", "2", "-n", "3", "-steps", "1",
			"-workers", "1", "-alpha", alpha)
		cmd.Env = append(os.Environ(), "SEMFLOW_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-alpha %s: %v, want exit status 2; output:\n%s", alpha, err, out)
			continue
		}
		if !strings.Contains(string(out), "-alpha "+alpha) {
			t.Errorf("-alpha %s: output does not name the flag:\n%s", alpha, out)
		}
	}
}
