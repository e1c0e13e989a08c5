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
func startDebug(t *testing.T, c *Collector) (*DebugServer, string) {
	t.Helper()
	d, err := ServeDebug("127.0.0.1:0", c, nil)
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
	c := New(Options{WindowCycles: 10_000})
	c.Counter("inject.events").Add(3)
	c.Gauge("inject.halfwidth.IQ").Set(0.25)
	c.Record(window(0))
	_, base := startDebug(t, c)

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

	// /telemetry serves the snapshot with the dotted legacy names.
	code, body, _ = get(t, base+"/telemetry")
	var snap Snapshot
	if code != http.StatusOK {
		t.Fatalf("/telemetry = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/telemetry not JSON: %v", err)
	}
	if snap.Counters["inject.events"] != 3 || snap.Gauges["inject.halfwidth.IQ"] != 0.25 {
		t.Fatalf("/telemetry snapshot missing registered metrics: %s", body)
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
		"smtavf_runtime_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/debug/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestDebugServerProgress(t *testing.T) {
	c := New(Options{WindowCycles: 10_000})
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: c.Registry()})
	c.SetProgress(p)
	p.Phase("run", 10_000)
	_, base := startDebug(t, c)

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
	c := New(Options{WindowCycles: 10_000})
	p := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: c.Registry()})
	c.SetProgress(p)
	p.Phase("run", 1_000_000)
	_, base := startDebug(t, c)

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
	events := c.Counter("inject.events")
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
// collector — the sweep-driver pattern — and checks every surface moved.
func TestDebugServerSetCollector(t *testing.T) {
	c1 := New(Options{WindowCycles: 10_000})
	c1.Counter("point.first").Inc()
	d, base := startDebug(t, c1)

	c2 := New(Options{WindowCycles: 10_000})
	c2.Counter("point.second").Add(5)
	p2 := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1})
	c2.SetProgress(p2)
	p2.Phase("point2", 10)
	d.SetCollector(c2)

	_, body, _ := get(t, base+"/telemetry")
	if !strings.Contains(body, "point.second") || strings.Contains(body, "point.first") {
		t.Fatalf("/telemetry did not retarget:\n%s", body)
	}
	_, body, _ = get(t, base+"/debug/metrics")
	if !strings.Contains(body, "smtavf_point_second 5") {
		t.Fatalf("/debug/metrics did not retarget:\n%s", body)
	}
	_, body, _ = get(t, base+"/debug/progress")
	if !strings.Contains(body, `"phase": "point2"`) {
		t.Fatalf("/debug/progress did not retarget:\n%s", body)
	}
}
