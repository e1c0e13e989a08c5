package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smtavf/internal/jsonlio"
)

// fixedManifests builds a deterministic ledger for the golden tests —
// NewManifest stamps wall times and pids, so the round-trip fixtures are
// built by hand.
func fixedManifests() []RunManifest {
	return []RunManifest{
		{
			V: 1, ID: "smtsim-20260801T120000-1-1", Kind: "run",
			Program: "smtsim", ConfigDigest: "a1b2c3d4e5f6", Seed: 1, Policy: "ICOUNT",
			Workloads: []string{"mcf", "gcc"},
			Start:     "2026-08-01T12:00:00Z", End: "2026-08-01T12:00:09Z", WallSeconds: 9,
			Cycles: 123456, Instructions: 100000,
			Status: StatusOK,
			Artifacts: []Artifact{
				{Kind: "telemetry", Path: "run.jsonl.gz"},
				{Kind: "crossval", Path: "xval.jsonl"},
			},
		},
		{
			V: 1, ID: "avfsweep-20260801T130000-2-1", Kind: "sweep-point",
			Program: "avfsweep", ConfigDigest: "ffeeddccbbaa", Seed: 7, CampaignSeed: 9,
			Policy: "FLUSH", Workloads: []string{"mcf", "equake", "vpr", "swim"},
			Start: "2026-08-01T13:00:00Z", End: "2026-08-01T13:01:40Z", WallSeconds: 100,
			Cycles: 777777, Strikes: 4096,
			Status: StatusInterrupted, Error: "signal: interrupt",
		},
	}
}

func TestLedgerAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fixedManifests()
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(want[i])
		b, _ := json.Marshal(got[i])
		if string(a) != string(b) {
			t.Errorf("record %d round-trip mismatch:\n  wrote %s\n  read  %s", i, a, b)
		}
	}
}

func TestLedgerAppendIsAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, _ := OpenLedger(path)
	ms := fixedManifests()
	if err := l.Append(&ms[0]); err != nil {
		t.Fatal(err)
	}
	// A second handle on the same path (another process in real life)
	// must append, not truncate.
	l2, _ := OpenLedger(path)
	if err := l2.Append(&ms[1]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ledger has %d records, want 2 (append truncated?)", len(got))
	}
}

func TestLedgerRejectsGzipAndEmpty(t *testing.T) {
	if _, err := OpenLedger("runs.jsonl.gz"); err == nil {
		t.Fatalf("gzip ledger path accepted")
	}
	if _, err := OpenLedger(""); err == nil {
		t.Fatalf("empty ledger path accepted")
	}
}

func TestLedgerRejectsNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(`{"v":99,"id":"x","kind":"run","status":"ok"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLedger(path); err == nil {
		t.Fatalf("newer-schema record accepted")
	}
}

func TestLedgerNilSafety(t *testing.T) {
	var l *Ledger
	if err := l.Append(&RunManifest{}); err != nil {
		t.Fatalf("nil ledger append: %v", err)
	}
	if l.Path() != "" {
		t.Fatalf("nil ledger path = %q", l.Path())
	}
	var m *RunManifest
	m.AddArtifact("x", "y")
	m.Finish(StatusOK, nil)
}

// TestFormatRunsGolden pins the -runs listing byte for byte.
func TestFormatRunsGolden(t *testing.T) {
	got := FormatRuns(fixedManifests(), RunFilter{})
	golden := filepath.Join("testdata", "runs_list.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("-runs listing drifted from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatRunsFilter(t *testing.T) {
	ms := fixedManifests()
	out := FormatRuns(ms, RunFilter{Status: StatusInterrupted})
	if !strings.Contains(out, "1 runs") || !strings.Contains(out, "avfsweep-") {
		t.Fatalf("status filter failed:\n%s", out)
	}
	out = FormatRuns(ms, RunFilter{Program: "smtsim", Kind: "run"})
	if !strings.Contains(out, "1 runs") || !strings.Contains(out, "smtsim-") {
		t.Fatalf("program+kind filter failed:\n%s", out)
	}
}

func TestFindRun(t *testing.T) {
	ms := fixedManifests()
	m, err := FindRun(ms, "smtsim-20260801T120000-1-1")
	if err != nil || m.Program != "smtsim" {
		t.Fatalf("exact find: %v %+v", err, m)
	}
	if m, err = FindRun(ms, "avfsweep-"); err != nil || m.Kind != "sweep-point" {
		t.Fatalf("prefix find: %v", err)
	}
	if _, err = FindRun(ms, "nope"); err == nil {
		t.Fatalf("missing id found")
	}
	two := append(append([]RunManifest(nil), ms...), ms[0]) // duplicate prefix
	if _, err = FindRun(two, "smtsim-"); err == nil {
		t.Fatalf("ambiguous prefix resolved")
	}
}

func TestNewManifestFillsProvenance(t *testing.T) {
	m := NewManifest("run", "smtsim")
	if m.V != LedgerSchemaVersion || m.Kind != "run" || m.Program != "smtsim" {
		t.Fatalf("manifest header: %+v", m)
	}
	if m.ID == "" || m.Start == "" {
		t.Fatalf("manifest missing id/start: %+v", m)
	}
	m2 := NewManifest("run", "smtsim")
	if m.ID == m2.ID {
		t.Fatalf("two manifests share an id: %s", m.ID)
	}
	m.AddArtifact("telemetry", "a.jsonl")
	m.AddArtifact("telemetry", "") // empty path is dropped
	if len(m.Artifacts) != 1 {
		t.Fatalf("artifacts = %+v", m.Artifacts)
	}
	m.Finish(StatusOK, os.ErrClosed)
	if m.Status != StatusError || m.Error == "" || m.End == "" {
		t.Fatalf("finish with error: %+v", m)
	}
}

func TestConfigDigestStable(t *testing.T) {
	type cfg struct{ A, B int }
	h1 := ConfigDigest(cfg{1, 2})
	h2 := ConfigDigest(cfg{1, 2})
	h3 := ConfigDigest(cfg{1, 3})
	if h1 != h2 {
		t.Fatalf("digest unstable: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("digest ignores content")
	}
	if len(h1) != 12 {
		t.Fatalf("digest length = %d", len(h1))
	}
}

// retiredLedgerLine is a manifest smtsim wrote before sharded runs were
// removed: a "shards" count and a worker-"timeline" artifact. The fields
// are gone from RunManifest, but such a ledger must still read and list.
const retiredLedgerLine = `{"v":1,"id":"smtsim-20260901T080000-7-1","kind":"run","program":"smtsim","config_digest":"0a1b2c3d4e5f","seed":1,"policy":"ICOUNT","workloads":["gcc","mcf","vpr","perlbmk"],"start":"2026-09-01T08:00:00Z","end":"2026-09-01T08:00:04Z","wall_seconds":4,"cycles":2760000,"instructions":1000000,"shards":4,"status":"ok","artifacts":[{"kind":"timeline","path":"tl.json"}]}`

func TestReadLedgerKeepsRetiredRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := os.WriteFile(path, []byte(retiredLedgerLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Cycles != 2760000 || len(ms[0].Artifacts) != 1 {
		t.Fatalf("read %+v", ms)
	}
	if out := FormatRuns(ms, RunFilter{}); !strings.Contains(out, "1 runs") || !strings.Contains(out, "smtsim-20260901T080000-7-1") {
		t.Fatalf("retired record not listed:\n%s", out)
	}
}

// FuzzReadLedger feeds arbitrary bytes to ReadLedger as a runs.jsonl. It
// must not panic; the records it accepts must re-encode to a ledger that
// reads back to the same JSON; and FormatRuns and FormatRun must render
// them.
func FuzzReadLedger(f *testing.F) {
	var buf strings.Builder
	for _, m := range fixedManifests() {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(line) + "\n")
		buf.Write(line)
		buf.WriteByte('\n')
	}
	f.Add(buf.String())
	f.Add(retiredLedgerLine + "\n")
	f.Add(buf.String() + retiredLedgerLine)
	f.Add(`{"v":99,"id":"x","kind":"run","status":"ok"}` + "\n")
	f.Add(`{"v":1,"id":"x","kind":"run","workloads":[],"extra":{}}` + "\n" + `null`)
	f.Fuzz(func(t *testing.T, doc string) {
		dir := t.TempDir()
		path := filepath.Join(dir, "runs.jsonl")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		ms, err := ReadLedger(path)
		if err != nil {
			return
		}
		first, err := json.Marshal(ms)
		if err != nil {
			t.Fatalf("re-encoding accepted records: %v", err)
		}
		again := filepath.Join(dir, "again.jsonl")
		if err := jsonlio.WriteFile(again, ms); err != nil {
			t.Fatal(err)
		}
		back, err := ReadLedger(again)
		if err != nil {
			t.Fatalf("re-encoded records rejected: %v", err)
		}
		// JSON, not reflect.DeepEqual: an empty list or map reads back as
		// nil once omitempty drops it.
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(ms) || string(first) != string(second) {
			t.Fatalf("records changed across the round trip:\n%s\nread back as\n%s", first, second)
		}
		if out := FormatRuns(ms, RunFilter{}); !strings.HasPrefix(out, fmt.Sprintf("%d runs\n", len(ms))) {
			t.Fatalf("FormatRuns of %d records:\n%s", len(ms), out)
		}
		for i := range ms {
			if out := FormatRun(&ms[i]); strings.HasPrefix(out, "unprintable") {
				t.Fatalf("record %d: %s", i, out)
			}
		}
	})
}
