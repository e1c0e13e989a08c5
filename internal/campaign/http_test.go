package campaign

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPSubmitStatusCancel(t *testing.T) {
	fe := &fakeExecutor{}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	// Health endpoints.
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}

	// Submit.
	body := `{"name":"t","base":{"mix":"2ctx-CPU-A"},"seeds":[1,2]}`
	resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.Points != 2 || sub.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, sub)
	}
	waitDone(t, s, sub.ID)

	// Status.
	resp, err = http.Get(srv.URL + "/v1/campaigns/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "ok" || len(st.Results) != 2 {
		t.Fatalf("status = %+v", st)
	}

	// List.
	resp, err = http.Get(srv.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Campaigns []Status `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 1 {
		t.Fatalf("list = %+v", list)
	}

	// Cancel a finished campaign is a no-op 200; unknown is 404.
	resp, err = http.Post(srv.URL+"/v1/campaigns/"+sub.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/campaigns/nope/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d", resp.StatusCode)
	}

	// Bad submissions fail before any point is stored or run.
	for _, bad := range badSubmissions {
		resp, err := http.Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad submit %q = %d", bad, resp.StatusCode)
		}
	}
	if n := len(s.List()); n != 1 {
		t.Fatalf("service holds %d campaigns after the bad submissions, want 1", n)
	}
	if ids, err := s.store.List(); err != nil || len(ids) != 1 {
		t.Fatalf("store holds %v (%v) after the bad submissions, want 1 campaign", ids, err)
	}
}

// badSubmissions are POST /v1/campaigns bodies the service must answer
// with 400.
var badSubmissions = []string{
	`{"base":{}}`, `{"unknown_field":1,"base":{"mix":"2ctx-CPU-A"}}`, `not json`,
	`{"base":{"mix":"2ctx-CPU-A","machine":{"IQPartiton":8}}}`, `{"base":{"mix":"2ctx-CPU-A"},"machines":[{"IQSzie":8}]}`,
	// Unknown fetch policies.
	`{"base":{"mix":"2ctx-MIX-A","policy":"BOGUS"}}`,
	`{"base":{"mix":"2ctx-MIX-A","explain":{"policies":["ICOUNT","BOGUS"]}}}`,
	`{"base":{"mix":"2ctx-MIX-A"},"policies":["ICOUNT","BOGUS"]}`,
	// Unknown mixes and benchmarks, and machines core.Config refuses.
	`{"base":{"mix":"nope"}}`,
	`{"base":{"benchmarks":["gcc","nope"]}}`,
	`{"base":{"mix":"2ctx-CPU-A"},"mixes":["2ctx-CPU-A","4ctx-NOPE-Z"]}`,
	`{"base":{"mix":"2ctx-CPU-A"},"machines":[{"IQSize":0}]}`,
	`{"base":{"mix":"2ctx-CPU-A","machine":{"IQSize":0}}}`,
	// Stopping rules out of range.
	`{"base":{"mix":"2ctx-CPU-A","inject":{"stop":{"confidence":1.5}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","inject":{"stop":{"half_width":-0.02}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","inject":{"stop":{"max_strikes":-1}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","inject":{"stop":{"batch":-1}}}}`,
	// Negative propagation bounds.
	`{"base":{"mix":"2ctx-CPU-A","propagation":{"options":{"cap":-7}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","propagation":{"options":{"max_hops":-5}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","propagation":{"options":{"max_nodes":-1}}}}`,
	`{"base":{"mix":"2ctx-CPU-A","propagation":{"options":{"max_recorded_hops":-2}}}}`,
}

func TestHTTPStream(t *testing.T) {
	fe := &fakeExecutor{delay: 5 * time.Millisecond}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()

	id, _, err := s.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2, 3}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %s", ct)
	}
	seen := make(map[int]int)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		seen[res.Point]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d points, want 3", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Errorf("point %d streamed %d times", p, n)
		}
	}

	// Unknown campaign: 404 before any stream bytes.
	resp, err = http.Get(srv.URL + "/v1/campaigns/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream unknown = %d", resp.StatusCode)
	}
}

func TestHTTPReadyzDraining(t *testing.T) {
	fe := &fakeExecutor{}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	srv := httptest.NewServer(NewMux(s))
	defer srv.Close()
	s.Interrupt()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"base":{"mix":"2ctx-CPU-A"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d", resp.StatusCode)
	}
}
