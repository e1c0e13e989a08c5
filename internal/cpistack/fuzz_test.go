package cpistack_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smtavf/internal/core"
	"smtavf/internal/cpistack"
	"smtavf/internal/jsonlio"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// observedFile runs benches with a CPI-stack observer attached and returns
// the JSONL file its WriteFile writes.
func observedFile(f *testing.F, benches []string, warmup, total uint64) []byte {
	f.Helper()
	cfg := core.DefaultConfig(len(benches))
	cfg.Warmup = warmup
	var profiles []trace.Profile
	for _, b := range benches {
		p, err := workload.Profile(b)
		if err != nil {
			f.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	proc, err := core.New(cfg, profiles)
	if err != nil {
		f.Fatal(err)
	}
	o := cpistack.New(cpistack.Options{WindowCycles: 1_000})
	proc.SetCPIStack(o)
	if _, err := proc.Run(core.Limits{TotalInstructions: total}); err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "cpistack.jsonl")
	if err := o.WriteFile(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReadFile feeds ReadFile arbitrary files, seeded with what observers
// attached to real runs write (one, two and four threads, with and without
// a warmup, a few windows each: a large input takes long to minimize) and
// their single lines. ReadFile must never panic, and the windows it
// accepts must re-encode and read back equal.
func FuzzReadFile(f *testing.F) {
	for _, run := range []struct {
		benches       []string
		warmup, total uint64
	}{
		{[]string{"gcc"}, 0, 600},
		{[]string{"mcf", "gcc"}, 1_000, 1_000},
		{[]string{"gcc", "mcf", "vpr", "perlbmk"}, 0, 600},
	} {
		file := observedFile(f, run.benches, run.warmup, run.total)
		f.Add(file)
		for _, line := range bytes.SplitAfter(file, []byte("\n")) {
			f.Add(line)
		}
	}
	// One file a fuzzing process, rewritten by every input: a directory an
	// input would slow every input, and minimization with it.
	path := filepath.Join(f.TempDir(), "windows.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wins, err := cpistack.ReadFile(path)
		if err != nil {
			return
		}
		if err := jsonlio.WriteFile(path, wins); err != nil {
			t.Fatalf("re-encoding accepted windows: %v", err)
		}
		back, err := cpistack.ReadFile(path)
		if err != nil {
			t.Fatalf("re-encoded windows rejected: %v", err)
		}
		if !reflect.DeepEqual(back, wins) {
			t.Fatalf("windows changed across the round trip:\n got %+v\nwant %+v", back, wins)
		}
	})
}
