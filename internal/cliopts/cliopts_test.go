package cliopts

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smtavf/internal/obs"
)

func parse(t *testing.T, register func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestLog(t *testing.T) {
	var l Log
	parse(t, l.Register, "-log-level", "debug", "-log-json")
	var buf bytes.Buffer
	logger, err := l.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("hello")
	if out := buf.String(); !strings.Contains(out, `"msg":"hello"`) {
		t.Fatalf("JSON debug log missing: %q", out)
	}

	l = Log{}
	parse(t, l.Register)
	if _, err := (&Log{Level: "loud"}).Logger(&buf); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestTelemetry(t *testing.T) {
	var tel Telemetry
	parse(t, func(fs *flag.FlagSet) {
		tel.Register(fs)
		tel.RegisterDir(fs)
	}, "-telemetry-dir", "series/", "-telemetry-window", "5000")
	if !tel.Enabled() {
		t.Fatal("telemetry-dir did not enable telemetry")
	}
	if err := tel.Validate(); err != nil {
		t.Fatal(err)
	}
	if (&Telemetry{}).Enabled() {
		t.Fatal("empty group reports enabled")
	}
	if err := (&Telemetry{Path: "x.jsonl", Window: 0}).Validate(); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestInject(t *testing.T) {
	var inj Inject
	parse(t, inj.Register, "-inject", "-inject-every", "4", "-inject-ci", "0.02")
	if !inj.On || inj.Every != 4 || inj.CI != 0.02 {
		t.Fatalf("parsed %+v", inj)
	}
	if err := inj.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Inject{
		{On: true, Every: 0, CI: 0.01},
		{Every: 1, CI: 0},
		{Every: 1, CI: 2},
		{Every: 1, CI: 0.01, Strikes: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", bad)
		}
	}

	// RegisterStop exposes only the stopping rule.
	fs := flag.NewFlagSet("stop", flag.ContinueOnError)
	var stop Inject
	stop.RegisterStop(fs)
	if fs.Lookup("inject") != nil || fs.Lookup("inject-ci") == nil {
		t.Fatal("RegisterStop registered the wrong flags")
	}
}

func TestPipeTrace(t *testing.T) {
	var pt PipeTrace
	parse(t, pt.Register, "-pipetrace", "run.kanata", "-pipetrace-window", "100:200")
	if !pt.Enabled() {
		t.Fatal("path did not enable recording")
	}
	opt, err := pt.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.WindowStart != 100 || opt.WindowEnd != 200 {
		t.Fatalf("window %d:%d", opt.WindowStart, opt.WindowEnd)
	}
	if opt.ProvenanceOnly {
		t.Fatal("a trace file was requested but the recorder keeps no records")
	}
	// -pipetrace-top alone prints provenance tables only: no records kept.
	if opt, err := (&PipeTrace{Top: 3}).Options(); err != nil || !opt.ProvenanceOnly {
		t.Fatalf("-pipetrace-top without a file: %+v (%v), want ProvenanceOnly", opt, err)
	}
	if _, err := (&PipeTrace{Format: "bogus"}).Options(); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, _, err := ParseWindow("200:100"); err == nil {
		t.Fatal("inverted window accepted")
	}
	if start, end, err := ParseWindow("5000:"); err != nil || start != 5000 || end != 0 {
		t.Fatalf("open window parsed as %d:%d (%v)", start, end, err)
	}
}

func TestObs(t *testing.T) {
	var o Obs
	parse(t, o.Register, "-obs-ledger", "runs.jsonl", "-obs-heartbeat", "2s")
	if o.Ledger != "runs.jsonl" || o.HeartbeatInterval() != 2*time.Second {
		t.Fatalf("parsed %+v, heartbeat %v", o, o.HeartbeatInterval())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// Defaults: heartbeats on at the default interval, no ledger.
	o = Obs{}
	parse(t, o.Register)
	if o.Heartbeat != obs.DefaultHeartbeat {
		t.Fatalf("default heartbeat = %v", o.Heartbeat)
	}
	if l, err := o.OpenLedger(); err != nil || l != nil {
		t.Fatalf("no -obs-ledger: got %v, %v", l, err)
	}

	// -obs-heartbeat 0 disables heartbeat logging (negative option value).
	o = Obs{}
	parse(t, o.Register, "-obs-heartbeat", "0")
	if o.HeartbeatInterval() >= 0 {
		t.Fatalf("0 heartbeat maps to %v, want negative", o.HeartbeatInterval())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	// Gzip ledgers are append-hostile and rejected up front.
	if err := (&Obs{Ledger: "runs.jsonl.gz"}).Validate(); err == nil {
		t.Fatal("gzip ledger accepted")
	}
	if _, err := (&Obs{Ledger: ""}).OpenLedger(); err != nil {
		t.Fatal(err)
	}
	l, err := (&Obs{Ledger: filepath.Join(t.TempDir(), "runs.jsonl")}).OpenLedger()
	if err != nil || l == nil {
		t.Fatalf("OpenLedger: %v, %v", l, err)
	}
}

func TestShutdown(t *testing.T) {
	var s Shutdown
	var order []string
	s.Defer("first", func() error { order = append(order, "first"); return nil })
	s.Defer("second", func() error { order = append(order, "second"); return nil })
	var status string
	s.Final(func(st string) { status = st; order = append(order, "final") })
	s.Finish("ok", nil)
	if strings.Join(order, ",") != "second,first,final" {
		t.Fatalf("shutdown order = %v, want LIFO then final", order)
	}
	if status != "ok" {
		t.Fatalf("final status = %q", status)
	}

	// Running again is a no-op: the signal path and the normal path race,
	// exactly one wins.
	order = nil
	s.Finish("interrupted", nil)
	if len(order) != 0 {
		t.Fatalf("second Finish re-ran closers: %v", order)
	}

	// Done flips exactly when shutdown runs.
	if !s.Done() {
		t.Fatal("Done false after Finish")
	}
	if (&Shutdown{}).Done() {
		t.Fatal("fresh Shutdown reports Done")
	}

	// Flush ends one run and re-arms for the next: each run's closers and
	// final hook fire once, with that run's status.
	var multi Shutdown
	order = nil
	for _, run := range []string{"a", "b"} {
		multi.Defer(run, func() error { order = append(order, run); return nil })
		multi.Final(func(st string) { order = append(order, run+":"+st) })
		multi.Flush("ok", nil)
	}
	multi.Finish("ok", nil)
	if got := strings.Join(order, ","); got != "a,a:ok,b,b:ok" || !multi.Done() {
		t.Fatalf("per-run flushes = %s (done %v), want a,a:ok,b,b:ok then done", got, multi.Done())
	}

	// Nil receivers and nil closers are safe.
	var nilS *Shutdown
	nilS.Flush("ok", nil)
	nilS.Defer("x", func() error { return nil })
	nilS.Final(func(string) {})
	nilS.Finish("ok", nil)
	(&Shutdown{}).Defer("nil fn", nil)
	if nilS.Done() {
		t.Fatal("nil Shutdown reports Done")
	}
}
