package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/pipetrace"
)

func runWithPipeTrace(t *testing.T, warmup uint64, opt pipetrace.Options, total uint64) (*Processor, *pipetrace.Recorder) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Warmup = warmup
	proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
	if err != nil {
		t.Fatal(err)
	}
	rec := pipetrace.New(opt)
	proc.SetPipeTrace(rec)
	if _, err := proc.Run(Limits{TotalInstructions: total}); err != nil {
		t.Fatal(err)
	}
	return proc, rec
}

// pipeStructs are the structures whose residency the flight recorder
// accounts uop by uop, mirroring the tracker.
var pipeStructs = [...]avf.Struct{avf.IQ, avf.ROB, avf.LSQTag, avf.LSQData, avf.FU}

func TestPipetraceProvenanceMatchesTracker(t *testing.T) {
	for _, tc := range []struct {
		name     string
		warmup   uint64
		provOnly bool
	}{
		{"cold", 0, false},
		{"with-warmup", 5_000, false},
		{"provenance-only", 5_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := pipetrace.Options{ProvenanceOnly: tc.provOnly}
			proc, rec := runWithPipeTrace(t, tc.warmup, opt, 20_000)
			trk := proc.Tracker()
			prov := rec.Provenance()
			if tc.provOnly {
				if rec.Len() != 0 {
					t.Fatalf("provenance-only recorder retained %d records", rec.Len())
				}
				// The same run with records retained folds to the same report.
				_, full := runWithPipeTrace(t, tc.warmup, pipetrace.Options{}, 20_000)
				if want := full.Provenance(); !reflect.DeepEqual(prov, want) {
					t.Fatal("provenance-only report differs from the retaining recorder's")
				}
			} else if rec.Len() == 0 {
				t.Fatal("no records")
			}
			if prov.Records == 0 {
				t.Fatal("no uops folded")
			}
			for _, s := range pipeStructs {
				// The recorder replays the tracker's interval arithmetic,
				// including the warmup rebase clip, so totals match exactly.
				if got, want := rec.ACEBitCycles(s), trk.ACEBitCycles(s); got != want {
					t.Errorf("%s: recorder ACE bit-cycles %d, tracker %d", s, got, want)
				}
				if got, want := rec.ResidentBitCycles(s), trk.OccupiedBitCycles(s); got != want {
					t.Errorf("%s: recorder resident bit-cycles %d, tracker %d", s, got, want)
				}
				// And the per-PC provenance decomposes those totals exactly.
				var aceSum, resSum uint64
				for i := range prov.PCs {
					aceSum += prov.PCs[i].ACE[s]
					resSum += prov.PCs[i].Resident[s]
				}
				if aceSum != trk.ACEBitCycles(s) {
					t.Errorf("%s: per-PC ACE sum %d, tracker %d", s, aceSum, trk.ACEBitCycles(s))
				}
				if resSum != trk.OccupiedBitCycles(s) {
					t.Errorf("%s: per-PC resident sum %d, tracker %d", s, resSum, trk.OccupiedBitCycles(s))
				}
			}
		})
	}
}

func TestPipetraceWindowSampling(t *testing.T) {
	opt := pipetrace.Options{WindowStart: 2_000, WindowEnd: 4_000}
	_, rec := runWithPipeTrace(t, 0, opt, 20_000)
	if rec.Len() == 0 {
		t.Fatal("window recorded nothing")
	}
	for _, r := range rec.Records() {
		if r.Fetch < opt.WindowStart || r.Fetch >= opt.WindowEnd {
			t.Fatalf("record fetched at %d outside window [%d,%d)",
				r.Fetch, opt.WindowStart, opt.WindowEnd)
		}
	}
}

func TestPipetraceRecordsAreWellFormed(t *testing.T) {
	_, rec := runWithPipeTrace(t, 0, pipetrace.Options{}, 20_000)
	type dyn struct {
		tid int
		seq uint64
	}
	// Committing fates retire each dynamic instruction exactly once;
	// squashed correct-path work may be refetched, so only count commits.
	committedSeqs := map[dyn]bool{}
	threads := map[int]bool{}
	for i := range rec.Records() {
		r := &rec.Records()[i]
		threads[r.TID] = true
		if r.V != pipetrace.SchemaVersion {
			t.Fatalf("record schema v%d, want v%d", r.V, pipetrace.SchemaVersion)
		}
		if r.Retire < r.Fetch {
			t.Fatalf("gseq %d retires at %d before fetch at %d", r.GSeq, r.Retire, r.Fetch)
		}
		if r.Dispatch >= 0 && uint64(r.Dispatch) < r.Fetch {
			t.Fatalf("gseq %d dispatches at %d before fetch at %d", r.GSeq, r.Dispatch, r.Fetch)
		}
		if r.Issue >= 0 && r.Dispatch < 0 {
			t.Fatalf("gseq %d issued without dispatching", r.GSeq)
		}
		if r.ACE != (r.Fate == avf.FateCommitted) {
			t.Fatalf("gseq %d: ACE=%v with fate %s", r.GSeq, r.ACE, r.Fate)
		}
		if r.Fate == avf.FateCommitted || r.Fate == avf.FateDead || r.Fate == avf.FateNOP {
			k := dyn{r.TID, r.Seq}
			if committedSeqs[k] {
				t.Fatalf("thread %d seq %d committed twice", r.TID, r.Seq)
			}
			committedSeqs[k] = true
		}
	}
	if len(threads) != 2 {
		t.Fatalf("records from %d threads, want 2", len(threads))
	}
}

// TestPipetraceExportersFromSameRun drives one simulation and checks the
// Kanata and Chrome exports of the same recording both load cleanly.
func TestPipetraceExportersFromSameRun(t *testing.T) {
	_, rec := runWithPipeTrace(t, 0, pipetrace.Options{}, 10_000)

	var kanata bytes.Buffer
	if err := pipetrace.Write(&kanata, pipetrace.FormatKanata, rec.Records()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(kanata.String(), "\n"), "\n")
	if lines[0] != "Kanata\t0004" || !strings.HasPrefix(lines[1], "C=\t") {
		t.Fatalf("bad Kanata preamble: %q, %q", lines[0], lines[1])
	}
	var retires int
	for _, ln := range lines[2:] {
		kind, _, ok := strings.Cut(ln, "\t")
		if !ok {
			t.Fatalf("untabbed Kanata line %q", ln)
		}
		switch kind {
		case "C", "I", "L", "S", "R":
		default:
			t.Fatalf("unknown Kanata record type %q in %q", kind, ln)
		}
		if kind == "R" {
			retires++
		}
	}
	if retires != rec.Len() {
		t.Fatalf("Kanata retires %d uops, recorded %d", retires, rec.Len())
	}

	var chrome bytes.Buffer
	if err := pipetrace.Write(&chrome, pipetrace.FormatChrome, rec.Records()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				GSeq *uint64 `json:"gseq"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	uops := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args.GSeq != nil {
			uops[*e.Args.GSeq] = true
		}
	}
	if len(uops) != rec.Len() {
		t.Fatalf("chrome trace covers %d uops, recorded %d", len(uops), rec.Len())
	}

	var jsonl bytes.Buffer
	if err := pipetrace.Write(&jsonl, pipetrace.FormatJSONL, rec.Records()); err != nil {
		t.Fatal(err)
	}
	back, err := pipetrace.ReadJSONL(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != rec.Len() {
		t.Fatalf("JSONL round trip lost records: %d != %d", len(back), rec.Len())
	}
}

// TestPipetraceDetachedRunIdentical checks attaching a recorder does not
// perturb the simulation: cycles, commits, and AVF match a detached run.
func TestPipetraceDetachedRunIdentical(t *testing.T) {
	run := func(attach bool) *Results {
		cfg := DefaultConfig(2)
		proc, err := New(cfg, benchProfiles(t, "mcf", "gcc"))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			proc.SetPipeTrace(pipetrace.New(pipetrace.Options{}))
		}
		res, err := proc.Run(Limits{TotalInstructions: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with, without := run(true), run(false)
	if with.Cycles != without.Cycles || with.Total != without.Total {
		t.Fatalf("recorder perturbed the run: %d/%d cycles, %d/%d commits",
			with.Cycles, without.Cycles, with.Total, without.Total)
	}
	for _, s := range pipeStructs {
		if with.StructAVF(s) != without.StructAVF(s) {
			t.Fatalf("%s AVF differs with recorder attached", s)
		}
	}
}
