package telemetry

import (
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/cpistack"
)

func TestGzipExporterRoundTrip(t *testing.T) {
	for _, name := range []string{"run.jsonl.gz", "run.csv.gz"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			e, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := e.Export(window(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatalf("%s is not gzip: %v", name, err)
			}
			data, err := io.ReadAll(zr)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(name, ".csv.gz") {
				rows, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 4 { // header + 3 windows
					t.Fatalf("got %d CSV rows, want 4", len(rows))
				}
			} else {
				lines := strings.Split(strings.TrimSpace(string(data)), "\n")
				if len(lines) != 3 {
					t.Fatalf("got %d JSONL lines, want 3", len(lines))
				}
				var w Window
				if err := json.Unmarshal([]byte(lines[0]), &w); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestCollectorStampsSchemaVersion(t *testing.T) {
	c := New(Options{})
	c.Record(window(0))
	last, ok := c.Last()
	if !ok || last.V != SchemaVersion {
		t.Fatalf("recorded window carries v=%d, want %d", last.V, SchemaVersion)
	}
}

// TestCSVHeaderMatchesJSONLSchema ties the CSV column set to the Window
// JSON tags by reflection: every scalar JSONL field appears as a CSV
// column in the same order, the map-valued fields expand to per-structure
// columns, and only the known slice/map fields are allowed to differ.
func TestCSVHeaderMatchesJSONLSchema(t *testing.T) {
	var buf strings.Builder
	e := NewCSV(&buf)
	if err := e.Export(stackWindow(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := rows[0]
	colIdx := map[string]int{}
	for i, c := range header {
		colIdx[c] = i
	}

	// Fields the CSV deliberately omits (variable-length per-thread slice)
	// or expands into per-structure, per-thread or per-fate columns.
	omitted := map[string]bool{"thread_ipc": true, "occupancy": true}
	expanded := map[string]bool{"avf": true, "cum_avf": true, "stack": true, "fates": true}
	var stackCols []string
	for tid := 0; tid < 2; tid++ {
		for _, c := range cpistack.Components() {
			stackCols = append(stackCols, fmt.Sprintf("t%d.%s", tid, c))
		}
	}
	var fateCols []string
	for _, s := range cpistack.OccupancyStructs() {
		for _, f := range avf.Fates() {
			fateCols = append(fateCols, s.String()+"."+f.String())
		}
	}

	prev := -1
	rt := reflect.TypeOf(Window{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" || omitted[tag] {
			continue
		}
		if tag == "stack" || tag == "fates" {
			cols := stackCols
			if tag == "fates" {
				cols = fateCols
			}
			for _, col := range cols {
				if _, present := colIdx[col]; !present {
					t.Errorf("JSONL map field %q: CSV misses column %q", tag, col)
				}
			}
			continue
		}
		if expanded[tag] {
			for _, s := range StructNames() {
				col := strings.ToLower(s) + "_avf"
				if tag == "cum_avf" {
					col = "cum_" + strings.ToLower(s) + "_avf"
				}
				if _, present := colIdx[col]; !present {
					t.Errorf("JSONL map field %q: CSV misses column %q", tag, col)
				}
			}
			continue
		}
		idx, present := colIdx[tag]
		if !present {
			t.Errorf("JSONL field %q has no CSV column", tag)
			continue
		}
		if idx <= prev {
			t.Errorf("CSV column %q out of JSONL field order (index %d after %d)", tag, idx, prev)
		}
		prev = idx
	}

	// And the reverse: every scalar CSV column maps back to a JSONL field.
	jsonTags := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		jsonTags[strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]] = true
	}
	expansions := map[string]bool{}
	for _, c := range append(stackCols, fateCols...) {
		expansions[c] = true
	}
	for _, c := range header {
		if strings.HasSuffix(c, "_avf") || expansions[c] {
			continue // expansion of the avf / cum_avf / stack / fates maps
		}
		if !jsonTags[c] {
			t.Errorf("CSV column %q does not correspond to any JSONL field", c)
		}
	}
}

// stackWindow is window(i) as a run with the CPI-stack observer attached
// records it: every component and fate carries a distinct value.
func stackWindow(i, threads int) Window {
	w := window(i)
	w.Stack = map[string][]uint64{}
	for _, c := range cpistack.Components() {
		col := make([]uint64, threads)
		for tid := range col {
			col[tid] = uint64(100*tid + int(c) + i)
		}
		w.Stack[c.String()] = col
	}
	w.Fates = map[string]map[string]uint64{}
	for _, s := range cpistack.OccupancyStructs() {
		byFate := map[string]uint64{}
		for _, f := range avf.Fates() {
			byFate[f.String()] = uint64(1000*int(s) + int(f) + i)
		}
		w.Fates[s.String()] = byFate
	}
	return w
}

// TestCSVStackColumns: a series that carries a CPI stack appends its
// t<tid>.<component> and <struct>.<fate> columns with the window's values;
// one without keeps the scalar and AVF columns alone.
func TestCSVStackColumns(t *testing.T) {
	var buf strings.Builder
	e := NewCSV(&buf)
	w := stackWindow(1, 2)
	if err := e.Export(w); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	base := 14 + 2*len(StructNames())
	want := base + 2*cpistack.NumComponents + len(cpistack.OccupancyStructs())*int(avf.NumFates)
	if len(rows) != 2 || len(rows[0]) != want || len(rows[1]) != want {
		t.Fatalf("got %d rows of %d columns, want 2 of %d", len(rows), len(rows[0]), want)
	}
	cell := map[string]string{}
	for i, c := range rows[0] {
		cell[c] = rows[1][i]
	}
	if got := cell["t1.l2_miss"]; got != fmt.Sprint(w.Stack["l2_miss"][1]) {
		t.Errorf("t1.l2_miss = %s, want %d", got, w.Stack["l2_miss"][1])
	}
	if got := cell["IQ.committed"]; got != fmt.Sprint(w.Fates["IQ"]["committed"]) {
		t.Errorf("IQ.committed = %s, want %d", got, w.Fates["IQ"]["committed"])
	}
	if rows[0][base] != "t0.base" || rows[0][want-1] != "Reg.squashed" {
		t.Errorf("stack columns run %q..%q, want t0.base..Reg.squashed", rows[0][base], rows[0][want-1])
	}
}

// TestChromeExporter: a .json series is one valid trace_event document
// with one counter event per track per window: the avf track always, and
// a cpi/t<tid> and an occupancy/<struct> track when the windows carry a
// CPI stack.
func TestChromeExporter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		threads int
	}{
		{"without-stack", 0},
		{"with-stack", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.json")
			e, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			const windows = 3
			for i := 0; i < windows; i++ {
				w := window(i)
				if tc.threads > 0 {
					w = stackWindow(i, tc.threads)
				}
				if err := e.Export(w); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Ph   string `json:"ph"`
					Ts   uint64 `json:"ts"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("chrome trace is not valid JSON: %v", err)
			}
			tracks := []string{"avf"}
			if tc.threads > 0 {
				for tid := 0; tid < tc.threads; tid++ {
					tracks = append(tracks, fmt.Sprintf("cpi/t%d", tid))
				}
				for _, s := range cpistack.OccupancyStructs() {
					tracks = append(tracks, "occupancy/"+s.String())
				}
			}
			counters := map[string][]uint64{}
			meta := 0
			for _, ev := range doc.TraceEvents {
				switch ev.Ph {
				case "C":
					counters[ev.Name] = append(counters[ev.Name], ev.Ts)
				case "M":
					meta++
				default:
					t.Fatalf("unexpected phase %q", ev.Ph)
				}
			}
			if len(counters) != len(tracks) || meta != tc.threads {
				t.Fatalf("%d counter tracks and %d metadata events, want %d and %d", len(counters), meta, len(tracks), tc.threads)
			}
			for _, track := range tracks {
				ts := counters[track]
				if len(ts) != windows {
					t.Fatalf("track %s has %d events, want one per window (%d)", track, len(ts), windows)
				}
				for i, v := range ts {
					if v != window(i).StartCycle {
						t.Errorf("track %s event %d at ts %d, want the window's start %d", track, i, v, window(i).StartCycle)
					}
				}
			}
		})
	}
}
