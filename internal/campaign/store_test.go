package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func testPoints(n int) []Spec {
	points := make([]Spec, n)
	for i := range points {
		points[i] = Spec{V: SpecVersion, Mix: "2ctx-CPU-A", Seed: uint64(i + 1)}
	}
	return points
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "trip", time.Now(), testPoints(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(id, &Result{V: ResultVersion, Point: 1, Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Name != "trip" || len(lc.Points) != 3 {
		t.Fatalf("loaded %q with %d points", lc.Name, len(lc.Points))
	}
	if len(lc.Results) != 1 || lc.Results[1] == nil {
		t.Fatalf("results = %v", lc.Results)
	}
	if lc.Cancelled {
		t.Fatal("campaign is not cancelled")
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("list = %v", ids)
	}
}

// TestStoreLoadsRetiredExplainWindow: an explain point an older avfd
// stored with "window" still loads and resumes. The field set only the
// observer's live-gauge period, which an explain point never publishes.
func TestStoreLoadsRetiredExplainWindow(t *testing.T) {
	dir := t.TempDir()
	const id = "20261001T080000-0000abcd"
	if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
		t.Fatal(err)
	}
	stored := `{"v":1,"id":"` + id + `","name":"old","issued":"2026-10-01T08:00:00Z","points":[
	  {"v":1,"mix":"2ctx-MIX-A","explain":{"policies":["ICOUNT","FLUSH"],"window":5000}}]}`
	if err := os.WriteFile(filepath.Join(dir, id, "campaign.json"), []byte(stored), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Points) != 1 || lc.Points[0].Kind() != KindExplain || len(lc.Refused) != 0 {
		t.Fatalf("loaded points %+v (refused %v), want one resumable explain point", lc.Points, lc.Refused)
	}
	if _, err := lc.Points[0].Resolve(Defaults{}); err != nil {
		t.Fatalf("stored explain point does not resolve: %v", err)
	}
}

// TestStoreTruncatedResult simulates a SIGKILL mid-append: the trailing
// partial line must be skipped, losing only that point.
func TestStoreTruncatedResult(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "", time.Now(), testPoints(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(id, &Result{V: ResultVersion, Point: 0, Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id, "results.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"point":2,"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Results) != 1 || lc.Results[0] == nil {
		t.Fatalf("tolerant load kept %v, want only point 0", lc.Results)
	}
}

// TestStoreDuplicateResult: keep-first, so a point re-run after an
// untimely kill cannot double-count.
func TestStoreDuplicateResult(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "", time.Now(), testPoints(2)); err != nil {
		t.Fatal(err)
	}
	first := &Result{V: ResultVersion, Point: 0, Status: "ok", Cycles: 111}
	second := &Result{V: ResultVersion, Point: 0, Status: "ok", Cycles: 222}
	if err := st.AppendResult(id, first); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(id, second); err != nil {
		t.Fatal(err)
	}
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Results) != 1 || lc.Results[0].Cycles != 111 {
		t.Fatalf("keep-first violated: %+v", lc.Results[0])
	}
}

// TestStoreLongResultLine: a results line longer than the reader's
// starting buffer by far (a 3 MiB error message) loads intact, and so does
// the line after it.
func TestStoreLongResultLine(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "", time.Now(), testPoints(2)); err != nil {
		t.Fatal(err)
	}
	long := &Result{V: ResultVersion, Point: 0, Status: "error", Error: strings.Repeat("stall ", 1<<19)}
	if err := st.AppendResult(id, long); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult(id, &Result{V: ResultVersion, Point: 1, Status: "ok", Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.Results) != 2 || lc.Results[0].Error != long.Error || lc.Results[1].Cycles != 7 {
		t.Fatalf("loaded %d results; the long line did not survive intact", len(lc.Results))
	}
}

// FuzzStoreLoad writes arbitrary bytes as a 3-point campaign's
// results.jsonl, as a crash or a bad disk might leave it. Load must not
// panic or fail on a malformed line, and must keep exactly what a
// line-by-line reference keeps.
func FuzzStoreLoad(f *testing.F) {
	const points = 3
	st, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "", time.Now(), testPoints(points)); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.Dir(), id, "results.jsonl")
	line := func(r Result) string {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(data) + "\n"
	}
	// The lines TestStoreTruncatedResult and TestStoreDuplicateResult
	// write, then blank, CRLF-terminated and out-of-range lines.
	f.Add([]byte(line(Result{V: ResultVersion, Point: 0, Status: "ok"}) + `{"v":1,"point":2,"sta`))
	f.Add([]byte(line(Result{V: ResultVersion, Point: 0, Status: "ok", Cycles: 111}) +
		line(Result{V: ResultVersion, Point: 0, Status: "ok", Cycles: 222})))
	f.Add([]byte("\n{\"v\":1,\"point\":1,\"status\":\"ok\"}\r\n{\"point\":3}\n{\"point\":-1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lc, err := st.Load(id)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		for p := range lc.Results {
			if p < 0 || p >= points {
				t.Fatalf("kept a result for point %d of %d", p, points)
			}
		}
		if want := referenceResults(data, points); !reflect.DeepEqual(lc.Results, want) {
			t.Fatalf("Load kept points %v, the reference %v", keys(lc.Results), keys(want))
		}
	})
}

// referenceResults applies Load's rules to data split on '\n': blank and
// undecodable lines are skipped, so are points outside [0, n), and the
// first result for a point wins.
func referenceResults(data []byte, n int) map[int]*Result {
	out := make(map[int]*Result)
	for _, line := range bytes.Split(data, []byte("\n")) {
		var res Result
		if len(line) == 0 || json.Unmarshal(line, &res) != nil || res.Point < 0 || res.Point >= n {
			continue
		}
		if _, dup := out[res.Point]; !dup {
			out[res.Point] = &res
		}
	}
	return out
}

func keys(m map[int]*Result) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

func TestStoreCancelMarker(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := NewID(time.Now())
	if err := st.Create(id, "", time.Now(), testPoints(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.MarkCancelled(id); err != nil {
		t.Fatal(err)
	}
	lc, err := st.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if !lc.Cancelled {
		t.Fatal("cancel marker did not survive the round trip")
	}
}

func TestNewIDUnique(t *testing.T) {
	now := time.Now()
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewID(now)
		if seen[id] {
			t.Fatalf("duplicate ID %s", id)
		}
		seen[id] = true
	}
}
