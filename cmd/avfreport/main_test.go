package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain re-execs the test binary as avfreport itself when
// AVFREPORT_CHILD is set, so the tests drive the real command line.
func TestMain(m *testing.M) {
	if os.Getenv("AVFREPORT_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOutOfRangeCounts: a seed fan-out or strike count below 1
// exits 1 with smtsim's wording before anything is simulated, instead of
// running the campaign kind's default; so do two report modes, instead of
// printing one and dropping the other.
func TestRejectsOutOfRangeCounts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-crossval", "2ctx-CPU-A", "-crossval-seeds", "0", "-seed", "7"},
			"avfreport: -crossval-seeds must be positive, got 0\n"},
		{[]string{"-propagation", "2ctx-CPU-A", "-propagation-strikes", "0"},
			"avfreport: -propagation-strikes must be positive, got 0\n"},
		{[]string{"-propagation", "2ctx-CPU-A", "-propagation-strikes", "-3"},
			"avfreport: -propagation-strikes must be positive, got -3\n"},
		{[]string{"-crossval", "2ctx-CPU-A", "-crossval-seeds", "1", "-propagation", "2ctx-MIX-A"},
			"avfreport: -crossval and -propagation each print their own report; pass one\n"},
		{[]string{"-explain", "2ctx-CPU-A", "-provenance", "2ctx-MIX-A"},
			"avfreport: -explain and -provenance each print their own report; pass one\n"},
	} {
		cmd := exec.Command(os.Args[0], append(tc.args, "-base", "2000", "-log-level", "warn")...)
		cmd.Env = append(os.Environ(), "AVFREPORT_CHILD=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("avfreport %s: exit %v, want status 1", strings.Join(tc.args, " "), err)
		}
		if stderr.String() != tc.want {
			t.Errorf("avfreport %s: stderr %q, want %q", strings.Join(tc.args, " "), stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("avfreport %s printed a report:\n%s", strings.Join(tc.args, " "), stdout.String())
		}
	}
}
