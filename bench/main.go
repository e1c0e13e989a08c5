// Command bench is the repository's benchmark. It builds cmd/avfreport and
// cmd/avfd from the enclosing checkout, runs four user flows against them
// from outside (child processes and HTTP calls), checks every output, and
// prints one line per end-to-end metric followed by a one-line JSON
// summary. With -trace 1 it instead runs one traced repetition of each
// workload in-process, calling the exported functions the CLIs call, and
// reports per-layer metrics.
//
// From the repository root:
//
//	bash bench/run.sh                                   # all workloads, 3 reps each
//	bash bench/run.sh --workload figures --seed 2 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1 -trace-dir /tmp/t       # spans + per-layer table
//	bash bench/run.sh -o a.jsonl                        # append the summaries
//	bash bench/run.sh -compare a.jsonl b.jsonl          # verdict per metric
//
// bench/README.md documents the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadNames lists the workloads in rotation order.
var workloadNames = []string{"figures", "faults", "observe", "service"}

// minReps is the fewest timed repetitions a workload gets, however short
// -seconds is.
const minReps = 3

// runTimeout bounds a whole invocation; a child still running then is
// killed and the run fails.
const runTimeout = 170 * time.Second

func main() {
	if os.Getenv(launcherEnv) != "" {
		os.Exit(launch(os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all (round-robin)")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", 0, "repeat each workload while one more rep fits in this many seconds (at least 3 reps)")
		traceOn  = fs.Int("trace", 0, "1 runs one traced rep per workload in-process and reports per-layer metrics")
		traceDir = fs.String("trace-dir", "", "with -trace 1, write the spans (Chrome trace_event JSON) and the per-layer table to this directory")
		outPath  = fs.String("o", "", "append this run's summaries as one JSON line to this file")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	names := workloadNames
	if *wl != "all" {
		if !slices.Contains(workloadNames, *wl) {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wl)
			return 2
		}
		names = []string{*wl}
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	// A timeout or a SIGINT/SIGTERM cancels ctx, which kills the running
	// launcher, and with it the program it started.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	e := &env{ctx: ctx, root: root, bin: filepath.Join(scratch, "bin"), work: work, sz: defaultSizes, seed: *seed, out: stdout}
	o := options{workloads: names, seconds: *seconds, trace: *traceOn == 1, traceDir: *traceDir}
	res, err := benchmark(e, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *outPath != "" {
		if err := appendResult(*outPath, e, o, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(finalLine(res, o))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// options selects what one invocation measures.
type options struct {
	workloads []string
	seconds   float64
	trace     bool
	traceDir  string
}

// env is what every workload shares: where the binaries and scratch
// files live, the input sizes and seed, and where human-readable lines go.
type env struct {
	ctx  context.Context
	root string // repository root: the directory whose go.mod declares module smtavf
	bin  string // holds the built avfreport and avfd
	work string // scratch directory, removed when the run ends
	sz   sizes
	seed uint64
	out  io.Writer
}

// sizes scales every workload. defaultSizes is what BENCHMARK.json
// measures and what digests.json pins for seed 1.
type sizes struct {
	FigureBase  uint64 `json:"figure_base"`  // avfreport -base of the figures workload
	FaultBase   uint64 `json:"fault_base"`   // -base of the crossval and propagation runs
	ObserveBase uint64 `json:"observe_base"` // -base of the explain and provenance runs
	Points      int    `json:"points"`       // service points per session
	Seeded      int    `json:"seeded"`       // completed campaigns in the store avfd resumes
	PointInstr  uint64 `json:"point_instr"`  // instructions of one service point
	PointWarmup uint64 `json:"point_warmup"` // warmup instructions of one service point
}

var defaultSizes = sizes{
	FigureBase:  50_000,
	FaultBase:   45_000,
	ObserveBase: 200_000,
	Points:      400,
	Seeded:      1000,
	PointInstr:  10_000,
	PointWarmup: 5_000,
}

// flow is one benchmarked workload: a user flow through the program.
type flow interface {
	// setup prepares the workload before its first rep.
	setup() error
	// rep runs one timed repetition, recording its samples, set-up time
	// included, and returns its wall time.
	rep() (float64, error)
	// traced runs one untraced reference rep, then one traced rep.
	traced(t *traceRun) error
	record() *record
}

func newFlow(e *env, name string) flow {
	if name == "service" {
		return newServiceWorkload(e)
	}
	return &cliWorkload{e: e, rec: newRecord(name), ops: cliWorkloads[name]}
}

// benchmark builds the binaries, then either measures every workload
// round-robin until each has its reps, or runs one traced rep of each.
func benchmark(e *env, o options) ([]*record, error) {
	buildS, err := buildBinaries(e.ctx, e.root, e.bin)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "build_s %.3f (not a metric)\n", buildS)

	ws := make([]flow, len(o.workloads))
	recs := make([]*record, len(ws))
	for i, name := range o.workloads {
		ws[i] = newFlow(e, name)
		recs[i] = ws[i].record()
		if err := ws[i].setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}

	if o.trace {
		var all []span
		epoch := time.Now()
		for _, w := range ws {
			t := newTraceRun()
			if err := w.traced(t); err != nil {
				return nil, fmt.Errorf("%s traced: %w", w.record().workload, err)
			}
			w.record().finishTrace(t)
			shift := int64(t.tr.epoch.Sub(epoch))
			for _, s := range t.tr.snapshot() {
				s.Start, s.End = s.Start+shift, s.End+shift
				all = append(all, s)
			}
		}
		if o.traceDir != "" {
			if err := writeTraceDir(o.traceDir, all, recs); err != nil {
				return nil, err
			}
		}
	} else {
		// A workload stops once its minimum reps are in and another rep as
		// long as its last would run past -seconds, so a run's length
		// stays near -seconds however slow the host.
		measured, last := make([]float64, len(ws)), make([]float64, len(ws))
		for more := true; more; {
			more = false
			for i, w := range ws {
				r := w.record()
				if r.reps >= minReps && measured[i]+last[i] > o.seconds {
					continue
				}
				more = true
				start := time.Now()
				if _, err := w.rep(); err != nil {
					return nil, fmt.Errorf("%s: %w", r.workload, err)
				}
				last[i] = time.Since(start).Seconds()
				measured[i] += last[i]
			}
		}
	}
	for _, r := range recs {
		r.print(e.out, o.trace)
	}
	return recs, nil
}

// buildBinaries compiles avfreport and avfd from the checkout.
func buildBinaries(ctx context.Context, root, bin string) (float64, error) {
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/avfreport", "./cmd/avfd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building the commands: %w\n%s", err, out)
	}
	return time.Since(start).Seconds(), nil
}

// findRoot walks up from the working directory to the module root of the
// program under test.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(data) == "smtavf" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing smtavf module: run from the repository")
		}
		dir = parent
	}
}

// modulePath returns the module path a go.mod declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record accumulates one workload's samples, checks and layer metrics.
type record struct {
	workload  string
	reps      int                  // reps started, failed ones included
	walls     []float64            // s per rep
	rss       []float64            // MB per rep
	setups    []float64            // s per set-up
	calib     []float64            // ms per rep
	ops       map[string][]float64 // ms per op, by op kind
	kinds     []string             // op kinds in first-seen order
	attempted int
	failed    int
	digests   map[string]string // op kind → digest of its first output
	layers    map[string]metric // per-layer metrics of the traced rep
	generic   map[string]metric // the per-layer metrics BENCHMARK.json lists
}

func newRecord(name string) *record {
	return &record{workload: name, ops: map[string][]float64{}, digests: map[string]string{}, layers: map[string]metric{}}
}

func (r *record) addOp(kind string, ms float64) {
	if _, ok := r.ops[kind]; !ok {
		r.kinds = append(r.kinds, kind)
	}
	r.ops[kind] = append(r.ops[kind], ms)
}

// failf counts a failed op and prints why.
func (r *record) failf(w io.Writer, format string, args ...any) {
	r.failed++
	fmt.Fprintf(w, "FAIL %s: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// checkDigest compares an op's output digest with the workload's pinned
// seed-1 digest and with the op's first output in this run; a mismatch is
// a failed op.
func (r *record) checkDigest(e *env, kind, digest, where string) {
	first, seen := r.digests[kind]
	if !seen {
		r.digests[kind] = digest
		if want, ok := pinnedDigest(e, r.workload+"/"+kind); ok && digest != want {
			r.failf(e.out, "%s/%s %s: output digest %s, pinned seed-1 digest %s", r.workload, kind, where, short(digest), short(want))
		}
		return
	}
	if digest != first {
		r.failf(e.out, "%s/%s %s: output digest %s differs from the first rep's %s", r.workload, kind, where, short(digest), short(first))
	}
}

// endToEnd reduces the samples to the end-to-end metrics.
func (r *record) endToEnd() map[string]summary {
	return map[string]summary{
		"wall_s":      summarize(r.walls, "s"),
		"op_p50_ms":   r.opSummary(),
		"peak_rss_mb": peak(r.rss, "MB"),
		"setup_s":     summarize(r.setups, "s"),
	}
}

// peak reports the largest of the per-rep peaks, with their quartiles. A
// Go program's peak resident set depends on where its collector stands
// when the live heap peaks, so reps of one input land on two levels a
// fifth apart; their median flips between the levels, their maximum holds.
func peak(xs []float64, unit string) summary {
	s := summarize(xs, unit)
	if len(xs) > 0 {
		s.Median = slices.Max(xs)
	}
	return s
}

// opSummary is the median op latency. A workload with several op kinds
// (faults: crossval and propagation) reports the mean of the per-kind
// medians and quartiles, so the value does not jump between kinds.
func (r *record) opSummary() summary {
	s := summary{Unit: "ms"}
	for _, k := range r.kinds {
		ks := summarize(r.ops[k], "ms")
		s.Median += ks.Median / float64(len(r.kinds))
		s.Q1 += ks.Q1 / float64(len(r.kinds))
		s.Q3 += ks.Q3 / float64(len(r.kinds))
		s.N += ks.N
	}
	return s
}

// e2eOrder fixes the print order of the end-to-end metrics.
var e2eOrder = []string{"wall_s", "op_p50_ms", "peak_rss_mb", "setup_s"}

// print writes the workload's metric lines:
// "workload metric median q1 q3 n unit", then layer lines and the check.
func (r *record) print(w io.Writer, traced bool) {
	if !traced {
		m := r.endToEnd()
		for _, name := range e2eOrder {
			s := m[name]
			fmt.Fprintf(w, "%s %s %.6g %.6g %.6g %d %s\n", r.workload, name, s.Median, s.Q1, s.Q3, s.N, s.Unit)
		}
		c := summarize(r.calib, "ms")
		fmt.Fprintf(w, "%s host.calib_ms %.6g %.6g %.6g %d ms (diagnostic)\n", r.workload, c.Median, c.Q1, c.Q3, c.N)
	}
	for _, name := range sortedKeys(r.layers) {
		m := r.layers[name]
		fmt.Fprintf(w, "%s layer %s %.6g %s\n", r.workload, name, m.Value, m.Unit)
	}
	for _, name := range genericOrder {
		if m, ok := r.generic[name]; ok {
			fmt.Fprintf(w, "%s layer %s %.6g %s\n", r.workload, name, m.Value, m.Unit)
		}
	}
	var ds []string
	for _, k := range sortedKeys(r.digests) {
		ds = append(ds, k+"="+r.digests[k])
	}
	verdict := "ok"
	if r.failed > 0 {
		verdict = fmt.Sprintf("FAILED %d/%d ops", r.failed, r.attempted)
	}
	fmt.Fprintf(w, "%s check %s attempted=%d digests %s\n", r.workload, verdict, r.attempted, strings.Join(ds, " "))
}

// summaryLine is the last line a run prints.
type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// finalLine is the one-line JSON summary: end-to-end metrics untraced,
// per-layer metrics traced. With several workloads, names are prefixed
// "workload/".
func finalLine(recs []*record, o options) summaryLine {
	l := summaryLine{Metrics: map[string]metric{}}
	for _, r := range recs {
		prefix := ""
		if len(recs) > 1 {
			prefix = r.workload + "/"
		}
		if o.trace {
			for name, m := range r.generic {
				l.Metrics[prefix+name] = m
			}
		} else {
			for name, s := range r.endToEnd() {
				l.Metrics[prefix+name] = metric{Value: s.Median, Unit: s.Unit}
			}
		}
		l.Attempted += r.attempted
		l.Failed += r.failed
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	return l
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// short abbreviates a hex digest for log lines.
func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
