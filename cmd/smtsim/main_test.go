package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-execs the test binary as smtsim itself when SMTSIM_CHILD is
// set, so the tests drive the real command line: flag parsing, spec
// loading and the printed report.
func TestMain(m *testing.M) {
	if os.Getenv("SMTSIM_CHILD") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSmtsim runs the command with args and returns its stdout.
func runSmtsim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMTSIM_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smtsim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestSpecProtection: a -spec run classifies its strikes against the
// spec's protection map, so an ECC-protected IQ corrects every ACE
// strike instead of counting it as silent corruption.
func TestSpecProtection(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(spec, []byte(`{"v":1,"mix":"2ctx-CPU-A","instructions":10000,
		"protection":{"IQ":"ecc","ROB":"ecc","Reg":"ecc"},
		"inject":{"every":4,"stop":{"max_strikes":500}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSmtsim(t, "-spec", spec, "-log-level", "warn")

	// The strike-outcome table: structure, prot, strikes, masked, SDC, ...
	_, table, ok := strings.Cut(out, "strike outcomes")
	if !ok {
		t.Fatalf("no strike-outcome table in the report:\n%s", out)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 5 || f[0] != "IQ" {
			continue
		}
		if f[1] != "ecc" || f[4] != "0" {
			t.Fatalf("IQ row = %q, want prot ecc and 0 SDC", line)
		}
		return
	}
	t.Fatalf("no IQ row in the strike-outcome table:\n%s", table)
}
