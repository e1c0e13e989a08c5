package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultLine is one run's summaries as -o appends them: one JSON object
// per line, so a file can hold many runs.
type resultLine struct {
	Time      string                     `json:"time"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Traced    bool                       `json:"traced"`
	Host      hostInfo                   `json:"host"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Metrics   map[string]summary `json:"metrics,omitempty"` // end-to-end, untraced runs
	Layers    map[string]metric  `json:"layers,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digests   map[string]string  `json:"digests"`
}

// hostInfo names the machine a result was measured on.
type hostInfo struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
	OS    string `json:"os"`
}

func currentHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// appendResult appends the run's summaries to path as one JSON line.
func appendResult(path string, e *env, o options, recs []*record) error {
	line := resultLine{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: e.seed, Seconds: o.seconds, Traced: o.trace,
		Host: currentHost(), Sizes: e.sz, Workloads: map[string]workloadSummary{},
	}
	for _, r := range recs {
		ws := workloadSummary{Attempted: r.attempted, Failed: r.failed, Digests: r.digests, Layers: map[string]metric{}}
		if o.trace {
			for k, v := range r.layers {
				ws.Layers[k] = v
			}
			for k, v := range r.generic {
				ws.Layers[k] = v
			}
		} else {
			ws.Metrics = r.endToEnd()
		}
		line.Workloads[r.workload] = ws
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readResults(path string) ([]resultLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []resultLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !l.Traced {
			out = append(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// side reduces one file's runs to a summary per workload and metric: a
// single run keeps its own median and quartiles; several runs are reduced
// to the median and quartiles of their medians.
func side(lines []resultLine) map[string]map[string]summary {
	vals := map[string]map[string][]float64{}
	only := map[string]map[string]summary{}
	for _, l := range lines {
		for w, ws := range l.Workloads {
			if vals[w] == nil {
				vals[w], only[w] = map[string][]float64{}, map[string]summary{}
			}
			for m, s := range ws.Metrics {
				vals[w][m] = append(vals[w][m], s.Median)
				only[w][m] = s
			}
		}
	}
	out := map[string]map[string]summary{}
	for w, ms := range vals {
		out[w] = map[string]summary{}
		for m, xs := range ms {
			if len(xs) == 1 {
				out[w][m] = only[w][m]
			} else {
				out[w][m] = summarize(xs, only[w][m].Unit)
			}
		}
	}
	return out
}

// benchSpec is the part of BENCHMARK.json -compare judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict judges B against A under a metric's bound: unresolved when
// either side's spread is wider than the bound, regressed or improved when
// B's median moved by more than the bound, unchanged otherwise.
func verdict(a, b summary, better string, bound float64) (string, float64) {
	change := (b.Median - a.Median) / a.Median
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return "unresolved", change
	case worse > bound:
		return "regressed", change
	case worse < -bound:
		return "improved", change
	default:
		return "unchanged", change
	}
}

// runCompare prints one row per (metric, workload) present in both files.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files: -compare A.jsonl B.jsonl")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	la, err := readResults(args[0])
	if err != nil {
		return err
	}
	lb, err := readResults(args[1])
	if err != nil {
		return err
	}
	a, b := side(la), side(lb)
	fmt.Fprintf(w, "%-12s %-9s %12s %12s %8s %7s %7s %6s  %s\n", "metric", "workload", "A median", "B median", "change", "A iqr", "B iqr", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		for _, wl := range workloadNames {
			sa, okA := a[wl][m.Name]
			sb, okB := b[wl][m.Name]
			if !okA || !okB {
				continue
			}
			v, change := verdict(sa, sb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-12s %-9s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				m.Name, wl, sa.Median, sb.Median, 100*change, 100*sa.spread(), 100*sb.spread(), 100*m.Bound, v)
		}
	}
	return nil
}
