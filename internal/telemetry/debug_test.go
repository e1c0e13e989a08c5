package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"smtavf/internal/obs"
)

// startDebug boots a debug server on an ephemeral port and returns its
// base URL plus a cleanup.
func startDebug(t *testing.T, reg *obs.Registry, p *obs.Progress, c *Collector) (*DebugServer, string) {
	t.Helper()
	d, err := ServeDebug("127.0.0.1:0", reg, p, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, "http://" + d.Addr()
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestDebugServerRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{WindowCycles: 10_000, Registry: reg})
	reg.Counter("inject.events", "").Add(3)
	reg.Gauge("inject.halfwidth.IQ", "").Set(0.25)
	c.Record(window(0))
	_, base := startDebug(t, reg, nil, c)

	// Index lists every endpoint.
	code, body, _ := get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/metrics") ||
		!strings.Contains(body, "/debug/progress") {
		t.Fatalf("index (%d):\n%s", code, body)
	}

	// Unknown paths 404.
	if code, _, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}

	// /telemetry serves the window snapshot.
	code, body, _ = get(t, base+"/telemetry")
	var snap Snapshot
	if code != http.StatusOK {
		t.Fatalf("/telemetry = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v", err)
	}
	if snap.Windows != 1 || snap.Cycle != 10_000 {
		t.Fatalf("/telemetry snapshot = %s", body)
	}

	// /telemetry/ring serves the retained windows.
	code, body, _ = get(t, base+"/telemetry/ring")
	var ring []Window
	if code != http.StatusOK {
		t.Fatalf("/telemetry/ring = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &ring); err != nil || len(ring) != 1 {
		t.Fatalf("/telemetry/ring: err=%v len=%d", err, len(ring))
	}

	// /debug/metrics serves lint-clean OpenMetrics with sanitized names.
	code, body, hdr := get(t, base+"/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != obs.ContentTypeOpenMetrics {
		t.Fatalf("/debug/metrics content type = %q", ct)
	}
	if err := obs.Lint(body); err != nil {
		t.Fatalf("/debug/metrics fails the linter: %v\n%s", err, body)
	}
	for _, want := range []string{
		"smtavf_inject_events 3",
		"smtavf_inject_halfwidth_IQ 0.25",
		"smtavf_sim_committed 1000",
		"smtavf_sim_cycle 10000",
		"smtavf_runtime_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDebugServerProgress(t *testing.T) {
	c := New(Options{WindowCycles: 10_000})
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1})
	c.SetProgress(p)
	p.Phase("run", 10_000)
	_, base := startDebug(t, nil, p, c)

	c.Record(window(1)) // Committed 2000 → fraction 0.2

	code, body, _ := get(t, base+"/debug/progress")
	if code != http.StatusOK {
		t.Fatalf("/debug/progress = %d", code)
	}
	var snap obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/progress not JSON: %v\n%s", err, body)
	}
	if snap.Phase != "run" || snap.Done != 2000 || snap.Fraction != 0.2 {
		t.Fatalf("/debug/progress = %+v", snap)
	}
	if snap.Cycle != 20_000 {
		t.Fatalf("/debug/progress cycle = %d, want 20000", snap.Cycle)
	}
}

// TestDebugServerConcurrentScrape hammers every endpoint while the
// collector records windows — the race detector turns any unsynchronized
// read into a failure.
func TestDebugServerConcurrentScrape(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Options{WindowCycles: 10_000, Registry: reg})
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: reg})
	c.SetProgress(p)
	p.Phase("run", 1_000_000)
	_, base := startDebug(t, reg, p, c)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/telemetry", "/telemetry/ring", "/debug/metrics", "/debug/progress"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(base + path)
	}
	events := reg.Counter("inject.events", "")
	for i := 0; i < 50; i++ {
		events.Inc()
		c.Record(window(i))
	}
	close(stop)
	wg.Wait()
	if err := obs.Lint(func() string {
		_, body, _ := get(t, base+"/debug/metrics")
		return body
	}()); err != nil {
		t.Fatalf("post-run scrape fails linter: %v", err)
	}
}

// TestDebugServerSetCollector retargets a live server at a fresh
// collector — the sweep-driver pattern: /telemetry and /telemetry/ring
// follow it, while /debug/metrics and /debug/progress keep serving the
// registry and tracker the server was started with.
func TestDebugServerSetCollector(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("point.first", "").Inc()
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1})
	p.Phase("first", 10)
	c1 := New(Options{WindowCycles: 10_000})
	c1.Record(window(0))
	d, base := startDebug(t, reg, p, c1)

	// The new collector brings its own registry and tracker; neither is
	// served.
	reg2 := obs.NewRegistry()
	c2 := New(Options{WindowCycles: 10_000, Registry: reg2})
	p2 := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1})
	p2.Phase("second", 10)
	c2.SetProgress(p2)
	c2.Record(window(0))
	c2.Record(window(1))
	d.SetCollector(c2)

	var snap Snapshot
	_, body, _ := get(t, base+"/telemetry")
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Windows != 2 {
		t.Fatalf("/telemetry did not retarget (err %v):\n%s", err, body)
	}
	var ring []Window
	_, body, _ = get(t, base+"/telemetry/ring")
	if err := json.Unmarshal([]byte(body), &ring); err != nil || len(ring) != 2 {
		t.Fatalf("/telemetry/ring did not retarget (err %v):\n%s", err, body)
	}
	_, body, _ = get(t, base+"/debug/metrics")
	if !strings.Contains(body, "smtavf_point_first 1") || strings.Contains(body, "smtavf_sim_") {
		t.Fatalf("/debug/metrics left the server's registry:\n%s", body)
	}
	_, body, _ = get(t, base+"/debug/progress")
	if !strings.Contains(body, `"phase": "first"`) {
		t.Fatalf("/debug/progress left the server's tracker:\n%s", body)
	}
}

// TestDebugServerWithoutCollector: a server given a registry and a
// progress tracker but no collector serves both, lint-clean, and an empty
// window snapshot.
func TestDebugServerWithoutCollector(t *testing.T) {
	reg := obs.NewRegistry()
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: reg})
	p.Phase("strikes", 100)
	p.Observe(25, 0)
	_, base := startDebug(t, reg, p, nil)

	code, body, _ := get(t, base+"/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics = %d", code)
	}
	if err := obs.Lint(body); err != nil {
		t.Fatalf("/debug/metrics fails the linter: %v\n%s", err, body)
	}
	if !strings.Contains(body, "smtavf_progress_fraction 0.25") {
		t.Fatalf("/debug/metrics misses the tracker's gauges:\n%s", body)
	}
	code, body, _ = get(t, base+"/debug/progress")
	var snap obs.ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); code != http.StatusOK || err != nil ||
		snap.Phase != "strikes" || snap.Done != 25 {
		t.Fatalf("/debug/progress = %d (err %v):\n%s", code, err, body)
	}
	if code, body, _ = get(t, base+"/telemetry"); code != http.StatusOK || !strings.Contains(body, `"windows": 0`) {
		t.Fatalf("/telemetry without a collector = %d:\n%s", code, body)
	}
}
