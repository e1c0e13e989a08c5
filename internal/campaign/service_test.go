package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smtavf/internal/obs"
)

// fakeExecutor records executed specs and fabricates results; an optional
// gate blocks execution so tests can observe in-flight state.
type fakeExecutor struct {
	mu    sync.Mutex
	runs  []Spec
	gate  chan struct{} // when non-nil, each execution waits for a tick
	fail  map[uint64]bool
	delay time.Duration
}

func (f *fakeExecutor) exec(spec Spec) (*Result, error) {
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.runs = append(f.runs, spec)
	f.mu.Unlock()
	if f.fail[spec.Seed] {
		return nil, errors.New("boom")
	}
	res := &Result{
		Kind:     spec.Kind(),
		Name:     spec.Name,
		Workload: spec.WorkloadName(),
		Policy:   spec.PolicyName(),
		Seed:     spec.Seed,
		Status:   "ok",
		Cycles:   1000 + spec.Seed,
		AVF:      map[string]float64{"IQ": 0.25},
	}
	return res, nil
}

func (f *fakeExecutor) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.runs)
}

func newTestService(t *testing.T, dir string, exec Executor, ledger *obs.Ledger) *Service {
	t.Helper()
	s, err := NewService(ServiceOptions{Dir: dir, Workers: 2, Executor: exec, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitDone(t *testing.T, s *Service, id string) {
	t.Helper()
	_, _, done, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not finish")
	}
}

func TestServiceSubmitAndComplete(t *testing.T) {
	fe := &fakeExecutor{}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	id, points, err := s.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2, 3}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("submitted %d points", len(points))
	}
	waitDone(t, s, id)
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "ok" || st.Done != 3 || len(st.Results) != 3 {
		t.Fatalf("status = %+v", st)
	}
	for i, res := range st.Results {
		if res.Point != i || res.Campaign != id || res.Status != "ok" {
			t.Errorf("result %d = %+v", i, res)
		}
	}
	if fe.count() != 3 {
		t.Errorf("executor ran %d times", fe.count())
	}
}

func TestServiceExecutorErrorRecorded(t *testing.T) {
	fe := &fakeExecutor{fail: map[uint64]bool{2: true}}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	id, _, err := s.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, _ := s.Status(id)
	var failed *Result
	for _, res := range st.Results {
		if res.Status == "error" {
			failed = res
		}
	}
	if failed == nil || failed.Error != "boom" {
		t.Fatalf("error point not recorded: %+v", st.Results)
	}
	if st.State != "ok" {
		t.Fatalf("state = %s; an error point still completes the campaign", st.State)
	}
}

// TestServiceUnpersistedResultIsError: a point whose result the store
// cannot append (results.jsonl is a directory here; ENOSPC or EROFS fail
// the same call) is reported as an error on the stream, in Status and in
// its campaign-point manifest, never as ok: a restart would re-run it.
func TestServiceUnpersistedResultIsError(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
	ledger, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	fe := &fakeExecutor{gate: make(chan struct{})}
	blockAppend := func(spec Spec) (*Result, error) {
		dirs, err := filepath.Glob(filepath.Join(dir, "*", "campaign.json"))
		if err != nil || len(dirs) != 1 {
			return nil, fmt.Errorf("campaign dirs %v: %v", dirs, err)
		}
		if err := os.Mkdir(filepath.Join(filepath.Dir(dirs[0]), "results.jsonl"), 0o755); err != nil {
			return nil, err
		}
		return fe.exec(spec)
	}
	s := newTestService(t, dir, blockAppend, ledger)
	id, _, err := s.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	_, live, _, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	fe.gate <- struct{}{} // the point runs once the subscription is live
	var streamed *Result
	select {
	case streamed = <-live:
	case <-time.After(10 * time.Second):
		t.Fatal("no result streamed")
	}
	waitDone(t, s, id)
	check := func(where, status, msg string) {
		t.Helper()
		if status != obs.StatusError || !strings.Contains(msg, "persisting result") {
			t.Errorf("%s: status %q, error %q; want an error naming the failed append", where, status, msg)
		}
	}
	check("stream", streamed.Status, streamed.Error)
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 1 {
		t.Fatalf("status holds %d results, want 1", len(st.Results))
	}
	check("status", st.Results[0].Status, st.Results[0].Error)
	manifests, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, m := range manifests {
		if m.Kind == "campaign-point" {
			points++
			check("campaign-point manifest", m.Status, m.Error)
		}
	}
	if points != 1 {
		t.Fatalf("ledger holds %d campaign-point manifests, want 1", points)
	}
}

func TestServiceStreamExactlyOnce(t *testing.T) {
	fe := &fakeExecutor{gate: make(chan struct{})}
	s := newTestService(t, t.TempDir(), fe.exec, nil)
	id, _, err := s.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2, 3, 4}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	fe.gate <- struct{}{} // let one point land before subscribing
	past, live, done, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	go func() {
		for i := 0; i < 3; i++ {
			fe.gate <- struct{}{}
		}
	}()
	seen := make(map[int]int)
	for _, res := range past {
		seen[res.Point]++
	}
	deadline := time.After(10 * time.Second)
	for len(seen) < 4 {
		select {
		case res := <-live:
			seen[res.Point]++
		case <-deadline:
			t.Fatalf("saw %d/4 points", len(seen))
		case <-done:
			for {
				select {
				case res := <-live:
					seen[res.Point]++
					continue
				default:
				}
				break
			}
			if len(seen) < 4 {
				t.Fatalf("done with %d/4 points", len(seen))
			}
		}
	}
	for p, n := range seen {
		if n != 1 {
			t.Errorf("point %d streamed %d times", p, n)
		}
	}
}

func TestServiceCancelSkipsQueued(t *testing.T) {
	fe := &fakeExecutor{gate: make(chan struct{}, 64)}
	// One worker so points run strictly in order.
	st, err := NewService(ServiceOptions{Dir: t.TempDir(), Workers: 1, Executor: fe.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	id, _, err := st.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2, 3, 4}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	fe.gate <- struct{}{}
	if err := st.Cancel(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		select {
		case fe.gate <- struct{}{}:
		default:
		}
	}
	waitDone(t, st, id)
	status, _ := st.Status(id)
	if status.State != "cancelled" {
		t.Fatalf("state = %s", status.State)
	}
	if status.Done >= status.Points {
		t.Fatalf("cancel did not skip queued points: %d/%d done", status.Done, status.Points)
	}
	if err := st.Cancel("no-such-campaign"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("cancel of unknown campaign: %v", err)
	}
}

func TestServiceResume(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	ledger, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}

	// First life: run half the campaign, then "crash" (Interrupt + Close).
	fe := &fakeExecutor{gate: make(chan struct{})}
	s1, err := NewService(ServiceOptions{Dir: dir, Workers: 1, Executor: fe.exec, Ledger: ledger})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s1.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}, Seeds: []uint64{1, 2, 3, 4}}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	fe.gate <- struct{}{}
	fe.gate <- struct{}{}
	// Wait until both results are durable before interrupting.
	waitFor(t, func() bool {
		st, err := s1.Status(id)
		return err == nil && st.Done >= 2
	})
	s1.Interrupt()
	if _, _, err := s1.Submit(Matrix{Base: Spec{Mix: "2ctx-CPU-A"}}, time.Now()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}
	close(fe.gate) // unblock any in-flight execution so Close returns
	s1.Close()

	// An in-flight point may have finished during the drain; whatever was
	// durable at shutdown must not re-run.
	durable, err := (&Store{dir: dir}).Load(id)
	if err != nil {
		t.Fatal(err)
	}
	doneAtRestart := len(durable.Results)
	if doneAtRestart < 2 {
		t.Fatalf("only %d durable results before restart", doneAtRestart)
	}

	// Second life: exactly the missing points run.
	fe2 := &fakeExecutor{}
	s2 := newTestService(t, dir, fe2.exec, ledger)
	waitDone(t, s2, id)
	st2, err := s2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != "ok" || st2.Done != 4 {
		t.Fatalf("resumed status = %+v", st2)
	}
	if !st2.Resumed {
		t.Fatal("status does not mark the campaign resumed")
	}
	if n := fe2.count(); n != 4-doneAtRestart {
		t.Fatalf("resume re-ran %d points, want %d", n, 4-doneAtRestart)
	}

	// Ledger: every point exactly once, campaign interrupted then ok.
	manifests, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	pointSeen := make(map[string]int)
	var campaignStatuses []string
	for _, m := range manifests {
		switch m.Kind {
		case "campaign-point":
			pointSeen[m.Extra["point"]]++
		case "campaign":
			campaignStatuses = append(campaignStatuses, m.Status)
		}
	}
	if len(pointSeen) != 4 {
		t.Fatalf("ledger has %d distinct points, want 4", len(pointSeen))
	}
	for p, n := range pointSeen {
		if n != 1 {
			t.Errorf("point %s appears %d times in the ledger", p, n)
		}
	}
	wantStatuses := []string{obs.StatusInterrupted, obs.StatusOK}
	if fmt.Sprint(campaignStatuses) != fmt.Sprint(wantStatuses) {
		t.Fatalf("campaign manifests = %v, want %v", campaignStatuses, wantStatuses)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
