package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"smtavf/internal/obs"
)

// TestMain lets the test binary serve as the launcher, which the driver
// starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(launcherEnv) != "" {
		os.Exit(launch(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data        []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 3, 1.5, 4.5},
		{[]float64{0.5, 9.1, 3.3, 7.7, 2.2, 6.1, 4.4, 8.8, 1.9, 5.5}, 4.95, 2.125, 7.975},
	} {
		s := summarize(c.data, "s")
		if !near(s.Median, c.med) || !near(s.Q1, c.q1) || !near(s.Q3, c.q3) || s.N != len(c.data) {
			t.Errorf("summarize(%v) = %+v, want median %g q1 %g q3 %g", c.data, s, c.med, c.q1, c.q3)
		}
		if !near(s.spread(), (c.q3-c.q1)/c.med) {
			t.Errorf("spread(%v) = %g", c.data, s.spread())
		}
	}
	if s := summarize([]float64{7}, "s"); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 {
		t.Errorf("one sample: %+v", s)
	}
	if s := summarize(nil, "s"); s.N != 0 || s.Median != 0 {
		t.Errorf("no samples: %+v", s)
	}
}

func TestPeakIsTheLargestRep(t *testing.T) {
	s := peak([]float64{52, 67, 52, 66, 52}, "MB")
	if s.Median != 67 || s.N != 5 || !near(s.Q1, 52) || !near(s.Q3, 66.5) {
		t.Errorf("peak = %+v, want value 67 over 5 reps with q1 52 q3 66.5", s)
	}
	if s := peak(nil, "MB"); s.N != 0 || s.Median != 0 {
		t.Errorf("no reps: %+v", s)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		label string
		value float64
	}{
		{40, "p75", 30},
		{100, "p90", 90},
		{400, "p97.5", 390},
		{1200, "p99", 1188},
		{10000, "p99.9", 9990},
	} {
		label, v, ok := tail(seq(c.n))
		if !ok || label != c.label || v != c.value {
			t.Errorf("tail(n=%d) = %s %g %v, want %s %g", c.n, label, v, ok, c.label, c.value)
		}
		if beyond := float64(c.n) - v; beyond < 10 {
			t.Errorf("tail(n=%d) leaves %g samples beyond", c.n, beyond)
		}
	}
	if _, _, ok := tail(seq(39)); ok {
		t.Error("tail of 39 samples: no percentile has ten samples beyond it")
	}
}

func TestJoinCountsMissingManifestAsFailed(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	recs := []pointRecord{
		{ID: "a", Sent: at(0), Accepted: at(2), Received: at(30)},
		{ID: "b", Sent: at(1), Accepted: at(3), Received: at(40)}, // no manifest
		{ID: "c", Sent: at(5), Err: os.ErrDeadlineExceeded},       // failed on the client
	}
	ms := []obs.RunManifest{
		{Kind: "campaign-point", Start: at(4).Format(time.RFC3339Nano), End: at(24).Format(time.RFC3339Nano),
			WallSeconds: 0.020, Extra: map[string]string{"campaign": "a"}},
		{Kind: "campaign", Extra: map[string]string{"campaign": "b"}}, // campaign-level, not a point
		{Kind: "campaign-point", Start: at(6).Format(time.RFC3339Nano), End: at(9).Format(time.RFC3339Nano),
			WallSeconds: 0.003, Extra: map[string]string{"campaign": "c"}},
	}
	j := join(recs, ms)
	if !j[0].ok || j[1].ok || j[2].ok {
		t.Fatalf("ok = %v %v %v, want true false false", j[0].ok, j[1].ok, j[2].ok)
	}
	want := pointCost{Submit: 2, Queue: 4, Exec: 20, Deliver: 6, Latency: 30}
	if got := j[0].cost; !near(got.Submit, want.Submit) || !near(got.Queue, want.Queue) ||
		!near(got.Exec, want.Exec) || !near(got.Deliver, want.Deliver) || !near(got.Latency, want.Latency) {
		t.Errorf("cost = %+v, want %+v", got, want)
	}
}

func TestVerdictUnderBound(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	for _, c := range []struct {
		a, b   summary
		better string
		want   string
	}{
		{tight(10), tight(10.5), "lower", "unchanged"},
		{tight(10), tight(11.5), "lower", "regressed"},
		{tight(10), tight(8.5), "lower", "improved"},
		{tight(10), tight(8.5), "higher", "regressed"},
		{tight(10), tight(11.5), "higher", "improved"},
		{tight(10), summary{Median: 10, Q1: 8, Q3: 12}, "lower", "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v → %v, %s) = %s, want %s", c.a.Median, c.b.Median, c.better, got, c.want)
		}
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "cmd", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 60}, // two workers
		{ID: 3, Parent: 1, Layer: "core", Start: 20, End: 70},
		{ID: 4, Parent: 1, Layer: "experiments", Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	if want := []int64{100 - 60 - 10, 50, 50, 30}; !slices.Equal(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanes := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			lanes[e.Tid] = true
		}
	}
	if len(lanes) != 2 { // the child overlapping its sibling moves to a second lane
		t.Errorf("chrome trace uses %d lanes, want 2", len(lanes))
	}
}

func TestServicePointsAreSeededWholeBlocks(t *testing.T) {
	sz := defaultSizes
	a, b, c := servicePoints(7, sz), servicePoints(7, sz), servicePoints(8, sz)
	if len(a) != sz.Points {
		t.Fatalf("%d points, want %d", len(a), sz.Points)
	}
	same := true
	for i := range a {
		if a[i].Mix != b[i].Mix || a[i].Policy != b[i].Policy || a[i].Seed != b[i].Seed {
			t.Fatalf("point %d differs between runs of one seed", i)
		}
		same = same && a[i].Mix == c[i].Mix && a[i].Policy == c[i].Policy && a[i].Seed == c[i].Seed
	}
	if same {
		t.Error("seeds 7 and 8 drew the same points")
	}
	count := map[string]int{}
	for _, p := range a {
		count[p.Mix+"/"+p.Policy]++
	}
	for k, n := range count {
		if n != sz.Points/16 {
			t.Errorf("%s: %d points, want %d", k, n, sz.Points/16)
		}
	}
}

func TestPinnedDigestsCoverEveryOp(t *testing.T) {
	var p pinFile
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		t.Fatal(err)
	}
	want := []string{"service/points"}
	for w, ops := range cliWorkloads {
		for _, op := range ops {
			want = append(want, w+"/"+op.kind)
		}
	}
	for _, k := range want {
		if len(p.Digests[k]) != 64 {
			t.Errorf("digests.json pins no SHA-256 for %s", k)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists equal
// to the metrics the final line reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	units := (&record{}).endToEnd()
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if units[m.Name].Unit != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, code reports %q", m.Name, m.Unit, units[m.Name].Unit)
		}
	}
	if !slices.Equal(names, e2eOrder) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", names, e2eOrder)
	}
	names = nil
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, genericOrder) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", names, genericOrder)
	}
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// requires every op to pass its checks.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var out bytes.Buffer
	e := &env{ctx: ctx, root: root, bin: t.TempDir(), work: t.TempDir(), seed: 1, out: &out,
		sz: sizes{FigureBase: 2000, FaultBase: 2000, ObserveBase: 2000, Points: 20, Seeded: 50, PointInstr: 2000, PointWarmup: 1000}}
	defer func() {
		if t.Failed() {
			t.Log(out.String())
		}
	}()

	recs, err := benchmark(e, options{workloads: workloadNames})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", r.workload, r.failed, r.attempted)
		}
		for name, s := range r.endToEnd() {
			if s.N == 0 || !(s.Median > 0) {
				t.Errorf("%s %s = %+v", r.workload, name, s)
			}
		}
	}

	dir := t.TempDir()
	recs, err = benchmark(e, options{workloads: workloadNames, trace: true, traceDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed", r.workload, r.failed, r.attempted)
		}
		for _, name := range genericOrder {
			if m, ok := r.generic[name]; !ok || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s = %+v", r.workload, name, m)
			}
		}
	}
	for _, f := range []string{"trace.json", "layers.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Error(err)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
