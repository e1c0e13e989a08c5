package campaign

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
)

// fakeExecutorSeed is the seed fakeExecutor resolves an unset spec seed
// to, as a runner fills it from its own default.
const fakeExecutorSeed = 7

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
		Seed:     cmp.Or(spec.Seed, fakeExecutorSeed),
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
// its campaign-point manifest, never as ok: a restart would re-run it. The
// point leaves its seed to the executor, and the manifest records the seed
// the executor resolved.
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
			if m.Seed != fakeExecutorSeed || streamed.Seed != fakeExecutorSeed {
				t.Errorf("seed: manifest %d, result %d; want the executor's %d", m.Seed, streamed.Seed, fakeExecutorSeed)
			}
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

// TestServiceResumeRefusesShardedPoints: a campaign an older avfd stored
// with "shards" > 1 points resumes without running them monolithic. A
// completed point keeps its stored result, a pending sharded point fails
// with a message that names the removal, once in the stream and once in
// the ledger, and an unsharded point runs as usual.
func TestServiceResumeRefusesShardedPoints(t *testing.T) {
	dir := t.TempDir()
	const id = "20260901T080000-0000abcd"
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	stored := `{"v":1,"id":"` + id + `","name":"old","issued":"2026-09-01T08:00:00Z","points":[
	  {"v":1,"name":"seed=1","mix":"4ctx-MIX-A","seed":1,"instructions":1000000,"shards":4,"shard_workers":2},
	  {"v":1,"name":"seed=2","mix":"4ctx-MIX-A","seed":2,"instructions":1000000,"shards":4,"shard_workers":2},
	  {"v":1,"name":"seed=3","mix":"4ctx-MIX-A","seed":3,"instructions":1000000}]}`
	done0 := `{"v":1,"point":0,"campaign":"` + id + `","kind":"run","name":"seed=1","seed":1,"status":"ok","cycles":2760000,"instructions":1000000}`
	for name, data := range map[string]string{"campaign.json": stored, "results.jsonl": done0 + "\n"} {
		if err := os.WriteFile(filepath.Join(dir, id, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	ledger, err := obs.OpenLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}

	fe := &fakeExecutor{gate: make(chan struct{})}
	s := newTestService(t, dir, fe.exec, ledger)
	past, live, done, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(fe.gate)
	streamed := map[int][]*Result{}
	for _, res := range past {
		streamed[res.Point] = append(streamed[res.Point], res)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("resumed campaign did not finish")
	}
	for len(live) > 0 {
		res := <-live
		streamed[res.Point] = append(streamed[res.Point], res)
	}

	for p := 0; p < 3; p++ {
		if len(streamed[p]) != 1 {
			t.Fatalf("point %d streamed %d times, want once", p, len(streamed[p]))
		}
	}
	if r := streamed[0][0]; r.Status != obs.StatusOK || r.Cycles != 2760000 {
		t.Errorf("completed point 0 = %+v, want its stored result", r)
	}
	if r := streamed[1][0]; r.Status != obs.StatusError || !strings.Contains(r.Error, "sharded runs were removed") {
		t.Errorf("sharded point 1 = status %q, error %q; want an error naming the removal", r.Status, r.Error)
	}
	if r := streamed[2][0]; r.Status != obs.StatusOK || r.Cycles != 1003 {
		t.Errorf("unsharded point 2 = %+v, want the executor's result", r)
	}
	if fe.count() != 1 || fe.runs[0].Seed != 3 {
		t.Errorf("executor ran %+v, want only point 2", fe.runs)
	}

	manifests, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	points := map[string][]obs.RunManifest{}
	for _, m := range manifests {
		if m.Kind == "campaign-point" {
			points[m.Extra["point"]] = append(points[m.Extra["point"]], m)
		}
	}
	if len(points) != 2 || len(points["1"]) != 1 || len(points["2"]) != 1 {
		t.Fatalf("ledger point manifests = %v, want points 1 and 2 once each", points)
	}
	if m := points["1"][0]; m.Status != obs.StatusError || !strings.Contains(m.Error, "sharded runs were removed") {
		t.Errorf("point 1 manifest = status %q, error %q", m.Status, m.Error)
	}

	// The refusal is durable: another restart finds every point done.
	fe2 := &fakeExecutor{}
	s2 := newTestService(t, dir, fe2.exec, nil)
	if st, err := s2.Status(id); err != nil || st.Done != 3 || fe2.count() != 0 {
		t.Fatalf("second restart: status %+v (%v), %d runs", st, err, fe2.count())
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

// TestServiceResumeBeyondQueue: a store holding more pending points than
// the queue's minimum capacity (five campaigns of MaxPoints, killed before
// any point ran) must still open, then run every point exactly once.
func TestServiceResumeBeyondQueue(t *testing.T) {
	const campaigns = 5
	total := campaigns * MaxPoints
	if total <= queueSlots {
		t.Fatalf("%d pending points fit the %d-slot queue; the test needs more", total, queueSlots)
	}
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for k := 0; k < campaigns; k++ {
		points := make([]Spec, MaxPoints)
		for i := range points {
			points[i] = Spec{V: SpecVersion, Mix: "2ctx-CPU-A", Seed: uint64(k*MaxPoints + i + 1)}
		}
		id := fmt.Sprintf("20200101T000000-%08x", k)
		if err := st.Create(id, "", time.Now(), points); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	fe := &fakeExecutor{}
	opened := make(chan *Service, 1)
	go func() {
		s, err := NewService(ServiceOptions{Dir: dir, Workers: 2, Executor: fe.exec})
		if err != nil {
			t.Error(err)
		}
		opened <- s
	}()
	var s *Service
	select {
	case s = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatalf("NewService still blocked after 10 s resuming %d pending points", total)
	}
	if s == nil {
		t.FailNow()
	}
	t.Cleanup(s.Close)
	for _, id := range ids {
		waitDone(t, s, id)
	}

	fe.mu.Lock()
	defer fe.mu.Unlock()
	if len(fe.runs) != total {
		t.Fatalf("executor ran %d points, want %d", len(fe.runs), total)
	}
	ran := make(map[uint64]int, total)
	for _, spec := range fe.runs {
		ran[spec.Seed]++
	}
	for seed := uint64(1); seed <= uint64(total); seed++ {
		if ran[seed] != 1 {
			t.Fatalf("point with seed %d ran %d times, want once", seed, ran[seed])
		}
	}
}

// seedCompleted stores n completed one-point campaigns through Store, in
// the shape the service benchmark (bench/service.go) seeds avfd with.
func seedCompleted(tb testing.TB, dir string, n int) {
	tb.Helper()
	st, err := NewStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	spec := Spec{V: SpecVersion, Mix: "2ctx-CPU-A", Policy: "ICOUNT", Seed: 1, Instructions: 10_000, Warmup: 5_000}
	res := Result{
		V: ResultVersion, Kind: KindRun, Title: spec.Mix, Workload: spec.Mix,
		Policy: spec.Policy, Seed: spec.Seed, Status: obs.StatusOK,
		Cycles: spec.Instructions / 2, Instructions: spec.Instructions, IPC: 2, ProcessorAVF: 0.125,
		AVF: map[string]float64{},
	}
	for i, s := range avf.Structs() {
		res.AVF[s.String()] = 1 / float64(i+3)
	}
	issued := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("20200101T000000-%08x", i)
		if err := st.Create(id, "seeded", issued, []Spec{spec}); err != nil {
			tb.Fatal(err)
		}
		res.Campaign = id
		if err := st.AppendResult(id, &res); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestResumeAllocsPerCampaign bounds the bytes a restart allocates per
// stored campaign. Allocated bytes do not depend on the host, so the bound
// holds on any machine; a read buffer sized for the longest possible line
// per campaign (1 MiB each) breaks it.
func TestResumeAllocsPerCampaign(t *testing.T) {
	const campaigns, maxPerCampaign = 200, 32 << 10
	dir := t.TempDir()
	seedCompleted(t, dir, campaigns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewService(ServiceOptions{Dir: dir, Executor: (&fakeExecutor{}).exec})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := len(s.List()); n != campaigns {
		t.Fatalf("resumed %d campaigns, want %d", n, campaigns)
	}
	perCampaign := (after.TotalAlloc - before.TotalAlloc) / campaigns
	t.Logf("resume allocated %d B per campaign", perCampaign)
	if perCampaign > maxPerCampaign {
		t.Fatalf("resume allocated %d B per campaign, want at most %d", perCampaign, maxPerCampaign)
	}
}

// BenchmarkServiceResume times a restart over 1,000 completed one-point
// campaigns: NewService's load pass, the job queue and the workers, then
// Close.
func BenchmarkServiceResume(b *testing.B) {
	dir := b.TempDir()
	seedCompleted(b, dir, 1000)
	exec := (&fakeExecutor{}).exec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewService(ServiceOptions{Dir: dir, Executor: exec})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
