package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/obs"
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
	stdout, stderr, err := execSmtsim(args...)
	if err != nil {
		t.Fatalf("smtsim %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout
}

// execSmtsim runs the command with args and returns its stdout, stderr
// and exit error.
func execSmtsim(args ...string) (string, string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SMTSIM_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

// writeFile writes data to name in a fresh temporary directory.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// protectedSpec runs a strike campaign against ECC-protected IQ, ROB and
// register file.
const protectedSpec = `{"v":1,"mix":"2ctx-CPU-A","instructions":10000,
		"protection":{"IQ":"ecc","ROB":"ecc","Reg":"ecc"},
		"inject":{"every":4,"stop":{"max_strikes":500}}}`

// sweepMatrix is a 2x2 design-space sweep: two fetch policies crossed with
// two issue-queue sizes.
const sweepMatrix = `{"base":{"benchmarks":["gcc","mcf"],"instructions":20000,"warmup":10000},
		"policies":["ICOUNT","FLUSH"],"machines":[{"IQSize":48},{"IQSize":192}]}`

// TestSpecRunHonoursProtection: a -spec run classifies its strikes
// against the spec's protection map, so an ECC-protected IQ corrects every
// ACE strike instead of counting it as silent corruption.
func TestSpecRunHonoursProtection(t *testing.T) {
	out := runSmtsim(t, "-spec", writeFile(t, "spec.json", protectedSpec), "-log-level", "warn")

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

// TestStdoutGolden pins the printed report of six single-run invocations
// by the SHA-256 of stdout: the report, the strike and cross-validation
// tables, the propagation atlas, the CPI stack, the provenance hotspots
// and the JSON results.
func TestStdoutGolden(t *testing.T) {
	spec := writeFile(t, "spec.json", protectedSpec)
	base := []string{"-bench", "mcf,gcc", "-instructions", "20000"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{base, "f35888a6376de849278049da5b566a851c3d3d1acd2fd9c4c7c83bba538ab243"},
		{[]string{"-spec", spec}, "12c3c1daed48613a2c30fe2eedafa238feb029fbaf15249e6a11fb266c30a339"},
		{append(base, "-inject", "-propagation", "-propagation-strikes", "16"), "a5b8868c10fd11656bb2096225b53e358cbbad55ab0c605e72330462a80353d7"},
		{append(base, "-cpistack"), "a53c26850937c8d5c0353f9cdb6e0841c5270321a23fb9a34a7e680d412f6781"},
		{append(base, "-pipetrace-top", "3"), "c36fdc0f3a4ff11db2dad5bdade1efcde55660f6f8086d3fdde5b0b0a8b244e1"},
		{append(base, "-json"), "bfd911ce80688f9b54da38991ef5367a56409d68d9cd7fe85540d5f65bdca523"},
	} {
		out := runSmtsim(t, append(tc.args, "-log-level", "warn")...)
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("smtsim %s: stdout digest %s, want %s\n%s", strings.Join(tc.args, " "), got, tc.want, out)
		}
	}
}

// TestSweepParity: a matrix of policies x issue-queue sizes reproduces,
// point for point, the IPC and per-structure AVFs of the same sweep run as
// separate single runs with a patched machine (recorded in the CSV below,
// %.4f, structures in presentation order).
func TestSweepParity(t *testing.T) {
	const want = `ICOUNT,48,0.6496,0.5696,0.0212,0.0288,0.2330,0.5064,0.2460,0.0642,0.1991,0.1410,0.0283
ICOUNT,192,2.0006,0.2555,0.0646,0.0271,0.2282,0.4174,0.3805,0.0701,0.2961,0.1154,0.0305
FLUSH,48,1.8820,0.2299,0.0608,0.0279,0.2177,0.3631,0.0939,0.0117,0.0681,0.0841,0.0304
FLUSH,192,2.1126,0.0772,0.0682,0.0277,0.2173,0.3612,0.1174,0.0131,0.0839,0.0923,0.0303
`
	out := runSmtsim(t, "-spec", writeFile(t, "sweep.json", sweepMatrix), "-json", "-log-level", "warn")
	dec := json.NewDecoder(strings.NewReader(out))
	var got strings.Builder
	for i := 0; ; i++ {
		var res core.Results
		if err := dec.Decode(&res); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s,%d,%.4f", res.Policy, []int{48, 192}[i%2], res.IPC())
		for _, s := range avf.Structs() {
			fmt.Fprintf(&got, ",%.4f", res.StructAVF(s))
		}
		got.WriteString("\n")
	}
	if got.String() != want {
		t.Fatalf("sweep points:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestMatrixArtifacts: each point of a matrix writes its own telemetry
// series and its own ledger manifest, and the flags that write a single
// run's file are refused.
func TestMatrixArtifacts(t *testing.T) {
	sweep := writeFile(t, "sweep.json", sweepMatrix)
	dir := t.TempDir()
	series, ledger := filepath.Join(dir, "series"), filepath.Join(dir, "runs.jsonl")
	out := runSmtsim(t, "-spec", sweep, "-telemetry-dir", series, "-obs-ledger", ledger, "-log-level", "warn")
	points := []string{"ICOUNT/machine0", "ICOUNT/machine1", "FLUSH/machine0", "FLUSH/machine1"}
	for _, p := range points {
		if !strings.Contains(out, "== "+p+" ==\n") {
			t.Errorf("no %q header in the report", p)
		}
		if _, err := os.Stat(filepath.Join(series, strings.ReplaceAll(p, "/", "_")+".jsonl")); err != nil {
			t.Errorf("point %s: %v", p, err)
		}
	}
	if files, _ := os.ReadDir(series); len(files) != len(points) {
		t.Errorf("%d series files, want %d", len(files), len(points))
	}
	ms, err := obs.ReadLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(points) {
		t.Fatalf("%d manifests, want %d", len(ms), len(points))
	}
	for i, m := range ms {
		if m.Kind != "run" || m.Program != "smtsim" || m.Status != obs.StatusOK || m.Extra["point"] != points[i] {
			t.Errorf("manifest %d = %s/%s/%s point %q, want run/smtsim/ok point %q",
				i, m.Kind, m.Program, m.Status, m.Extra["point"], points[i])
		}
		if len(m.Artifacts) != 1 || m.Artifacts[0].Kind != "telemetry" {
			t.Errorf("manifest %d artifacts = %v, want its one series", i, m.Artifacts)
		}
	}

	for _, flag := range []string{"-telemetry", "-pipetrace", "-propagation-out"} {
		_, stderr, err := execSmtsim("-spec", sweep, "-inject", flag, filepath.Join(dir, "out.jsonl"))
		if err == nil || !strings.Contains(stderr, flag+" writes a single run's file") {
			t.Errorf("%s with 4 points: err %v, stderr %q; want a refusal", flag, err, stderr)
		}
	}
}

// TestPhasesNeedTheTelemetryWindow: the phases are read from the
// telemetry windows, so -phases beside a telemetry sink of another
// -telemetry-window is refused with both flags named, and is accepted
// with the same period.
func TestPhasesNeedTheTelemetryWindow(t *testing.T) {
	series := filepath.Join(t.TempDir(), "run.jsonl")
	_, stderr, err := execSmtsim("-bench", "gcc", "-instructions", "2000", "-phases", "1000", "-telemetry", series)
	if err == nil || !strings.Contains(stderr, "-phases 1000") || !strings.Contains(stderr, "-telemetry-window 10000") {
		t.Fatalf("-phases 1000 beside -telemetry-window 10000: err %v, stderr %q; want a refusal naming both", err, stderr)
	}
	out := runSmtsim(t, "-bench", "gcc", "-instructions", "2000", "-phases", "1000",
		"-telemetry", series, "-telemetry-window", "1000", "-json", "-log-level", "warn")
	var res core.Results
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("no phases with -phases equal to -telemetry-window")
	}
}
