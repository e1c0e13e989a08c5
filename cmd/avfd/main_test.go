package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"smtavf/internal/campaign"
	"smtavf/internal/experiments"
	"smtavf/internal/obs"
)

// TestMain re-execs the test binary as the avfd process itself when
// AVFD_CHILD is set, so the kill-and-resume e2e drives a real child
// process — real signals, real exit codes, real restart — without
// needing a prebuilt binary on the test machine.
func TestMain(m *testing.M) {
	if os.Getenv("AVFD_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startChild launches avfd against dir and returns the running command.
func startChild(t *testing.T, dir, ledger string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-addr", "127.0.0.1:0",
		"-dir", dir,
		"-obs-ledger", ledger,
		"-log-level", "warn",
	)
	cmd.Env = append(os.Environ(), "AVFD_CHILD=1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// waitAddr polls for the published listen address.
func waitAddr(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "avfd.addr")
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return strings.TrimSpace(string(data))
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("avfd did not publish %s", path)
	return ""
}

// readStream consumes the campaign's JSONL stream until the server ends
// it (terminal campaign) or limit results arrived.
func readStream(t *testing.T, addr, id string, limit int) []*campaign.Result {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/campaigns/%s/stream", addr, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var out []*campaign.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var res campaign.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		out = append(out, &res)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
	return out
}

// TestKillAndResume is the service's end-to-end contract: a campaign
// interrupted by SIGTERM mid-point resumes on restart, every point lands
// exactly once in the stream and the run ledger, the campaign's ledger
// trail reads interrupted -> ok, and the resumed results equal an
// uninterrupted in-process run of the same specs.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second process-level e2e")
	}
	dir := t.TempDir()
	ledger := filepath.Join(dir, "runs.jsonl")

	// Two points of ~1-2s each: long enough that SIGTERM, sent after the
	// first result streams, reliably lands while the second point runs.
	matrix := campaign.Matrix{
		Name: "e2e",
		Base: campaign.Spec{
			V:            campaign.SpecVersion,
			Benchmarks:   []string{"gcc", "mcf"},
			Instructions: 1_200_000,
			NoWarmup:     true,
		},
		Seeds: []uint64{1, 2},
	}
	body, err := json.Marshal(matrix)
	if err != nil {
		t.Fatal(err)
	}

	child := startChild(t, dir, ledger)
	addr := waitAddr(t, dir)

	resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	if submitted.Points != 2 {
		t.Fatalf("submitted %d points, want 2", submitted.Points)
	}

	// Interrupt mid-campaign: after the first result lands, the single
	// worker is inside point two.
	first := readStream(t, addr, submitted.ID, 1)
	if len(first) != 1 || first[0].Status != obs.StatusOK {
		t.Fatalf("first streamed result = %+v", first)
	}
	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = child.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("child exit after SIGTERM = %v, want code 130", err)
	}

	// Restart against the same directory: the campaign resumes and only
	// the missing point re-runs.
	if err := os.Remove(filepath.Join(dir, "avfd.addr")); err != nil {
		t.Fatal(err)
	}
	child2 := startChild(t, dir, ledger)
	defer func() {
		child2.Process.Signal(syscall.SIGTERM)
		child2.Wait()
	}()
	addr2 := waitAddr(t, dir)

	results := readStream(t, addr2, submitted.ID, 0)
	if len(results) != 2 {
		t.Fatalf("resumed stream returned %d results, want 2", len(results))
	}
	seen := map[int]*campaign.Result{}
	for _, res := range results {
		if seen[res.Point] != nil {
			t.Fatalf("point %d streamed twice", res.Point)
		}
		if res.Status != obs.StatusOK {
			t.Fatalf("point %d status %q: %s", res.Point, res.Status, res.Error)
		}
		seen[res.Point] = res
	}

	// The uninterrupted control: the same specs through the same executor,
	// in-process. The simulator is deterministic, so a resumed point must
	// reproduce it exactly.
	points, err := matrix.Points()
	if err != nil {
		t.Fatal(err)
	}
	runner := experiments.NewRunner(experiments.Options{})
	for i, spec := range points {
		want, err := runner.Campaign(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := seen[i]
		if got == nil {
			t.Fatalf("point %d missing from stream", i)
		}
		if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
			got.IPC != want.IPC || got.ProcessorAVF != want.ProcessorAVF {
			t.Errorf("point %d after resume: cycles %d, instructions %d, IPC %v, processor AVF %v; control %d, %d, %v, %v",
				i, got.Cycles, got.Instructions, got.IPC, got.ProcessorAVF,
				want.Cycles, want.Instructions, want.IPC, want.ProcessorAVF)
		}
		if !reflect.DeepEqual(got.AVF, want.AVF) {
			t.Errorf("point %d AVF after resume %v, control %v", i, got.AVF, want.AVF)
		}
	}

	// Ledger trail: each point exactly once, and the campaign transitions
	// interrupted (first process) -> ok (resume). The completion manifest
	// is appended just after the stream's terminal close, so poll briefly.
	var (
		pointRuns        map[string]int
		campaignStatuses []string
	)
	deadline := time.Now().Add(10 * time.Second)
	for {
		manifests, err := obs.ReadLedger(ledger)
		if err != nil {
			t.Fatal(err)
		}
		pointRuns = map[string]int{}
		campaignStatuses = nil
		for _, m := range manifests {
			if m.Extra["campaign"] != submitted.ID {
				continue
			}
			switch m.Kind {
			case "campaign-point":
				pointRuns[m.Extra["point"]]++
			case "campaign":
				campaignStatuses = append(campaignStatuses, m.Status)
			}
		}
		if len(campaignStatuses) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := range points {
		if n := pointRuns[fmt.Sprint(i)]; n != 1 {
			t.Errorf("point %d has %d ledger manifests, want exactly 1", i, n)
		}
	}
	want := []string{obs.StatusInterrupted, obs.StatusOK}
	if strings.Join(campaignStatuses, ",") != strings.Join(want, ",") {
		t.Errorf("campaign ledger statuses = %v, want %v", campaignStatuses, want)
	}
}

// TestHealthEndpoints smoke-tests liveness/readiness on a fresh child.
func TestHealthEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e")
	}
	dir := t.TempDir()
	child := startChild(t, dir, filepath.Join(dir, "runs.jsonl"))
	defer func() {
		child.Process.Signal(syscall.SIGTERM)
		child.Wait()
	}()
	addr := waitAddr(t, dir)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
	}
}

// TestServerTimeouts: a client that never finishes its request headers
// is cut off, idle connections close, and streams are never cut short.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 120*time.Second {
		t.Errorf("IdleTimeout = %v, want 120s", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: a /stream response lasts a whole campaign", srv.WriteTimeout)
	}
}
