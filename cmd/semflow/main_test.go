package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/session"
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
			"-alpha", alpha)
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

// semflow re-executes the test binary as semflow with args and returns its
// combined output and exit status.
func semflow(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SEMFLOW_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("semflow %v: %v", args, err)
	return "", -1
}

// TestNegativeSizeExitsOne: a negative size or rank count is refused by the
// session's one validation, naming the field, before any solver is built —
// not a panic and its goroutine trace, and not a run on some other machine.
func TestNegativeSizeExitsOne(t *testing.T) {
	for _, tc := range []struct{ caseName, field, value string }{
		{"shearlayer", "nel", "-3"}, {"channel", "kx", "-1"}, {"channel", "ranks", "-2"},
	} {
		out, code := semflow(t, "-case", tc.caseName, "-n", "3", "-steps", "1", "-"+tc.field, tc.value)
		if code != 1 || !strings.Contains(out, tc.field+" = "+tc.value) || strings.Contains(out, "goroutine ") {
			t.Errorf("-%s %s: exit status %d, want 1 naming the field, with no goroutine trace; output:\n%s",
				tc.field, tc.value, code, out)
		}
	}
}

// TestCheckpointKeepsFinalState: -checkpoint deposits after the last step
// too, so the store of a 3-step run snapshotting every 2 steps holds step 3.
func TestCheckpointKeepsFinalState(t *testing.T) {
	dir := t.TempDir()
	out, code := semflow(t, "-case", "channel", "-n", "3", "-kx", "2", "-ky", "2",
		"-steps", "3", "-checkpoint", dir, "-checkpoint-every", "2")
	if code != 0 {
		t.Fatalf("exit status %d; output:\n%s", code, out)
	}
	store, err := session.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := session.LoadCheckpoint(store, "channel")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step() != 3 {
		t.Errorf("stored snapshot at step %d, want 3; output:\n%s", ck.Step(), out)
	}
}

// TestRefusedResumeIsAnError: a -resume without -checkpoint is refused with
// exit status 1, and the refusal is logged as an error, not as progress.
func TestRefusedResumeIsAnError(t *testing.T) {
	out, code := semflow(t, "-case", "channel", "-n", "5", "-kx", "2", "-ky", "2", "-steps", "2", "-resume")
	if code != 1 || strings.Contains(out, "level=INFO") || !strings.Contains(out, "-resume needs -checkpoint") {
		t.Errorf("exit status %d, want 1 with the refusal and no level=INFO line; output:\n%s", code, out)
	}
}
