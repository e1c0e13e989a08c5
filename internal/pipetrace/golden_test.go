package pipetrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smtavf/internal/isa"
	"smtavf/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecords is a small hand-checked two-thread recording: a committed
// ALU op, a committed load, a wrong-path uop flushed before issue, and a
// second-thread store — covering every exporter branch (missing stages,
// squash retirement, multiple threads, lane overlap).
func goldenRecords() []Record {
	r := New(Options{})
	pl := pipeline.NewPool(4)
	r.Record(pl, uop(pl, 0, 0, 0, 0x1000, isa.IntALU, 10), 18, false)
	r.Record(pl, uop(pl, 0, 1, 1, 0x1004, isa.Load, 10), 19, false)

	flushed := uop(pl, 0, 2, 2, 0x1008, isa.IntALU, 11)
	pl.Flags[flushed] = pipeline.FWrongPath // neither issued nor executed
	res := &pl.Res[flushed]
	res.IssuedAt, res.FUCycles = 0, 0
	res.IQCycles, res.ROBCycles = 2, 2
	r.Record(pl, flushed, 17, true)

	r.Record(pl, uop(pl, 1, 3, 0, 0x2000, isa.Store, 12), 21, false)
	return r.Records()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenKanata(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteKanata(&buf, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.kanata", buf.Bytes())

	// Structural validation independent of the golden bytes: header, every
	// uid introduced before use, retirement ids dense and in retire order.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "Kanata\t0004" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "C=\t") {
		t.Fatalf("missing start-cycle line, got %q", lines[1])
	}
	introduced := map[string]bool{}
	retired := map[string]bool{}
	var rids []int
	for _, ln := range lines[2:] {
		f := strings.Split(ln, "\t")
		switch f[0] {
		case "C":
			if _, err := strconv.Atoi(f[1]); err != nil {
				t.Fatalf("bad cycle delta %q", ln)
			}
		case "I":
			introduced[f[1]] = true
		case "L", "S":
			if !introduced[f[1]] {
				t.Fatalf("uid %s used before I line: %q", f[1], ln)
			}
		case "R":
			if !introduced[f[1]] {
				t.Fatalf("uid %s retired before I line: %q", f[1], ln)
			}
			retired[f[1]] = true
			rid, err := strconv.Atoi(f[2])
			if err != nil {
				t.Fatalf("bad rid in %q", ln)
			}
			rids = append(rids, rid)
			if f[3] != "0" && f[3] != "1" {
				t.Fatalf("bad retire type in %q", ln)
			}
		default:
			t.Fatalf("unknown Kanata line %q", ln)
		}
	}
	if len(retired) != len(introduced) || len(introduced) != len(goldenRecords()) {
		t.Fatalf("introduced %d, retired %d, want %d each",
			len(introduced), len(retired), len(goldenRecords()))
	}
	seen := map[int]bool{}
	for _, rid := range rids {
		if rid < 0 || rid >= len(rids) || seen[rid] {
			t.Fatalf("retire ids %v are not a permutation of 0..%d", rids, len(rids)-1)
		}
		seen[rid] = true
	}
}

func TestGoldenChrome(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenRecords()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden.json", buf.Bytes())

	// The output must be valid trace_event JSON regardless of the golden
	// bytes: object format, every event carrying the required keys.
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Ts   *uint64         `json:"ts"`
			Dur  *uint64         `json:"dur"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	slices, metas := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			slices++
			if e.Ts == nil || e.Dur == nil || e.Pid == nil || e.Tid == nil {
				t.Fatalf("slice %q missing ts/dur/pid/tid", e.Name)
			}
			switch e.Name {
			case stageFetch, stageDispatch, stageExecute, stageComplete:
			default:
				t.Fatalf("unknown stage slice %q", e.Name)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if metas != 2 { // one process_name per hardware thread
		t.Fatalf("got %d metadata events, want 2", metas)
	}
	if slices == 0 {
		t.Fatal("no stage slices emitted")
	}
}
