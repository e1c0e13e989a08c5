// Package cliopts centralizes the flag groups shared by the smtavf
// commands (smtsim, avfreport, avfd): structured logging, telemetry,
// fault injection, pipeline tracing, and campaign observability. Each
// group is a struct with one Register method binding its flags to a
// FlagSet and one validation path, so every command spells the same option
// the same way (the flags drifted apart when each command owned its own
// copies: avfreport said -crossval-ci for what smtsim called -inject-ci).
package cliopts

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"smtavf/internal/cpistack"
	"smtavf/internal/jsonlio"
	"smtavf/internal/obs"
	"smtavf/internal/pipetrace"
	"smtavf/internal/telemetry"
)

// Log is the structured-logging flag group (-log-level, -log-json).
type Log struct {
	Level string
	JSON  bool
}

// Register binds the logging flags.
func (l *Log) Register(fs *flag.FlagSet) {
	fs.StringVar(&l.Level, "log-level", "info", help("log-level"))
	fs.BoolVar(&l.JSON, "log-json", false, help("log-json"))
}

// Logger validates the level and builds the logger writing to w.
func (l *Log) Logger(w io.Writer) (*slog.Logger, error) {
	level, err := telemetry.ParseLevel(l.Level)
	if err != nil {
		return nil, err
	}
	return telemetry.NewLogger(w, level, l.JSON), nil
}

// Telemetry is the live-metrics flag group (-telemetry,
// -telemetry-window, -debug-addr, and optionally -telemetry-dir).
type Telemetry struct {
	Path      string
	Dir       string
	Window    uint64
	DebugAddr string
}

// Register binds the telemetry flags every command shares.
func (t *Telemetry) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Path, "telemetry", "", help("telemetry"))
	fs.Uint64Var(&t.Window, "telemetry-window", telemetry.DefaultWindowCycles, help("telemetry-window"))
	fs.StringVar(&t.DebugAddr, "debug-addr", "", help("debug-addr"))
}

// RegisterDir additionally binds -telemetry-dir (one series file per
// run), for smtsim, which runs every point of a campaign matrix.
func (t *Telemetry) RegisterDir(fs *flag.FlagSet) {
	fs.StringVar(&t.Dir, "telemetry-dir", "", help("telemetry-dir"))
}

// Enabled reports whether any telemetry sink was requested.
func (t *Telemetry) Enabled() bool {
	return t.Path != "" || t.Dir != "" || t.DebugAddr != ""
}

// Validate rejects meaningless settings.
func (t *Telemetry) Validate() error {
	if t.Enabled() && t.Window == 0 {
		return fmt.Errorf("-telemetry-window must be positive")
	}
	return nil
}

// Inject is the fault-injection flag group (-inject, -inject-every,
// -inject-seed, -inject-ci, -inject-strikes, -inject-report).
type Inject struct {
	On      bool
	Every   uint64
	Seed    uint64
	CI      float64
	Strikes int
	Report  string
}

// Register binds the full group, for commands that own the campaign.
func (i *Inject) Register(fs *flag.FlagSet) {
	fs.BoolVar(&i.On, "inject", false, help("inject"))
	fs.Uint64Var(&i.Every, "inject-every", 1, help("inject-every"))
	fs.Uint64Var(&i.Seed, "inject-seed", 0, help("inject-seed"))
	i.RegisterStop(fs)
}

// RegisterStop binds only the stopping-rule and report flags, for
// commands whose campaigns are implied by another flag (avfreport's
// -crossval fanout).
func (i *Inject) RegisterStop(fs *flag.FlagSet) {
	fs.Float64Var(&i.CI, "inject-ci", 0.01, help("inject-ci"))
	fs.IntVar(&i.Strikes, "inject-strikes", 1<<20, help("inject-strikes"))
	fs.StringVar(&i.Report, "inject-report", "", help("inject-report"))
}

// Validate rejects meaningless settings.
func (i *Inject) Validate() error {
	if i.On && i.Every == 0 {
		return fmt.Errorf("-inject-every must be positive")
	}
	if i.CI <= 0 || i.CI >= 1 {
		return fmt.Errorf("-inject-ci must be in (0, 1), got %v", i.CI)
	}
	if i.Strikes < 0 {
		return fmt.Errorf("-inject-strikes must be non-negative, got %d", i.Strikes)
	}
	return nil
}

// Propagation is the fault-propagation atlas flag group (-propagation,
// -propagation-out, -propagation-strikes, -propagation-top).
type Propagation struct {
	On      bool
	Out     string
	Strikes int
	Top     int
}

// Register binds the propagation flags.
func (p *Propagation) Register(fs *flag.FlagSet) {
	fs.BoolVar(&p.On, "propagation", false, help("propagation"))
	fs.StringVar(&p.Out, "propagation-out", "", help("propagation-out"))
	fs.IntVar(&p.Strikes, "propagation-strikes", 256, help("propagation-strikes"))
	fs.IntVar(&p.Top, "propagation-top", 10, help("propagation-top"))
}

// Enabled reports whether the atlas was requested.
func (p *Propagation) Enabled() bool { return p.On || p.Out != "" }

// Validate rejects meaningless settings.
func (p *Propagation) Validate() error {
	if p.Enabled() && p.Strikes <= 0 {
		return fmt.Errorf("-propagation-strikes must be positive, got %d", p.Strikes)
	}
	return nil
}

// CPIStack is the explainability flag group (-cpistack, -cpistack-out,
// -cpistack-window).
type CPIStack struct {
	On     bool
	Out    string
	Window uint64
}

// Register binds the CPI-stack flags.
func (c *CPIStack) Register(fs *flag.FlagSet) {
	fs.BoolVar(&c.On, "cpistack", false, help("cpistack"))
	fs.StringVar(&c.Out, "cpistack-out", "", help("cpistack-out"))
	fs.Uint64Var(&c.Window, "cpistack-window", cpistack.DefaultWindowCycles, help("cpistack-window"))
}

// Enabled reports whether CPI-stack accounting was requested.
func (c *CPIStack) Enabled() bool { return c.On || c.Out != "" }

// Validate rejects meaningless settings.
func (c *CPIStack) Validate() error {
	if c.Enabled() && c.Window == 0 {
		return fmt.Errorf("-cpistack-window must be positive")
	}
	return nil
}

// Options builds the observer options from the flags.
func (c *CPIStack) Options() cpistack.Options {
	return cpistack.Options{WindowCycles: c.Window}
}

// PipeTrace is the pipeline flight-recorder flag group (-pipetrace,
// -pipetrace-format, -pipetrace-window, -pipetrace-top).
type PipeTrace struct {
	Path   string
	Format string
	Window string
	Top    int
}

// Register binds the pipetrace flags.
func (p *PipeTrace) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Path, "pipetrace", "", help("pipetrace"))
	fs.StringVar(&p.Format, "pipetrace-format", "", help("pipetrace-format"))
	fs.StringVar(&p.Window, "pipetrace-window", "", help("pipetrace-window"))
	fs.IntVar(&p.Top, "pipetrace-top", 0, help("pipetrace-top"))
}

// Enabled reports whether recording was requested.
func (p *PipeTrace) Enabled() bool { return p.Path != "" || p.Top > 0 }

// Options validates the group and builds the recorder options. Without a
// trace file the recorder keeps no records, only the provenance
// aggregation -pipetrace-top prints.
func (p *PipeTrace) Options() (pipetrace.Options, error) {
	opt := pipetrace.Options{ProvenanceOnly: p.Path == ""}
	if p.Window != "" {
		var err error
		opt.WindowStart, opt.WindowEnd, err = ParseWindow(p.Window)
		if err != nil {
			return opt, err
		}
	}
	if _, err := p.ExportFormat(); err != nil {
		return opt, err
	}
	return opt, nil
}

// ExportFormat validates -pipetrace-format; empty means choose by file
// extension.
func (p *PipeTrace) ExportFormat() (pipetrace.Format, error) {
	f := pipetrace.Format(p.Format)
	switch f {
	case "", pipetrace.FormatKanata, pipetrace.FormatChrome, pipetrace.FormatJSONL:
		return f, nil
	}
	return "", fmt.Errorf("unknown -pipetrace-format %q (kanata, chrome, or jsonl)", p.Format)
}

// ParseWindow parses a "START:END" cycle window; END may be omitted or 0
// for an unbounded window.
func ParseWindow(s string) (start, end uint64, err error) {
	a, b, found := strings.Cut(s, ":")
	if a != "" {
		if _, err = fmt.Sscanf(a, "%d", &start); err != nil {
			return 0, 0, fmt.Errorf("bad -pipetrace-window %q: %w", s, err)
		}
	}
	if found && b != "" {
		if _, err = fmt.Sscanf(b, "%d", &end); err != nil {
			return 0, 0, fmt.Errorf("bad -pipetrace-window %q: %w", s, err)
		}
		if end != 0 && end <= start {
			return 0, 0, fmt.Errorf("bad -pipetrace-window %q: end must exceed start", s)
		}
	}
	return start, end, nil
}

// Profile is the profiling flag group (-cpuprofile, -memprofile), shared
// by every command so a hot-loop regression can be profiled in the field
// without editing code (docs/performance.md).
type Profile struct {
	CPUPath string
	MemPath string
	cpuFile *os.File
}

// Register binds the profiling flags.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", "", help("cpuprofile"))
	fs.StringVar(&p.MemPath, "memprofile", "", help("memprofile"))
}

// Start begins CPU profiling when -cpuprofile was given. Pair it with a
// deferred Stop, which flushes both profiles.
func (p *Profile) Start() error {
	if p.CPUPath == "" {
		return nil
	}
	f, err := os.Create(p.CPUPath)
	if err != nil {
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the allocation profile, if either was
// requested. Safe to call when Start did nothing.
func (p *Profile) Stop() error {
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.MemPath != "" {
		f, err := os.Create(p.MemPath)
		if err == nil {
			runtime.GC() // settle live-heap numbers before the snapshot
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("-memprofile: %w", err)
		}
	}
	return first
}

// Obs is the campaign-observability flag group (-obs-ledger,
// -obs-heartbeat).
type Obs struct {
	Ledger    string
	Heartbeat time.Duration
}

// Register binds the observability flags.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Ledger, "obs-ledger", "", help("obs-ledger"))
	fs.DurationVar(&o.Heartbeat, "obs-heartbeat", obs.DefaultHeartbeat, help("obs-heartbeat"))
}

// HeartbeatInterval maps the flag onto obs.ProgressOptions.Heartbeat:
// the flag's 0 means "disable", which the option spells as negative.
func (o *Obs) HeartbeatInterval() time.Duration {
	if o.Heartbeat == 0 {
		return -1
	}
	return o.Heartbeat
}

// Validate rejects meaningless settings.
func (o *Obs) Validate() error {
	if o.Heartbeat < 0 {
		return fmt.Errorf("-obs-heartbeat must be non-negative, got %v", o.Heartbeat)
	}
	if o.Ledger != "" && jsonlio.IsGzipPath(o.Ledger) {
		return fmt.Errorf("-obs-ledger %q: gzip ledgers cannot be appended to; use an uncompressed .jsonl path", o.Ledger)
	}
	return nil
}

// OpenLedger opens the run ledger, or returns nil when -obs-ledger was
// not given (a nil ledger drops appends, so call sites need no branch).
func (o *Obs) OpenLedger() (*obs.Ledger, error) {
	if o.Ledger == "" {
		return nil, nil
	}
	return obs.OpenLedger(o.Ledger)
}

// Service is the campaign-service flag group (-addr, -dir, -workers),
// used by avfd. Dir doubles as the resume root: campaigns checkpointed
// there by a previous process are picked up on start.
type Service struct {
	Addr    string
	Dir     string
	Workers int
}

// Register binds the service flags.
func (s *Service) Register(fs *flag.FlagSet) {
	fs.StringVar(&s.Addr, "addr", ":8080", help("addr"))
	fs.StringVar(&s.Dir, "dir", "avfd-data", help("dir"))
	fs.IntVar(&s.Workers, "workers", 1, help("workers"))
}

// Validate rejects meaningless settings.
func (s *Service) Validate() error {
	if s.Addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if s.Dir == "" {
		return fmt.Errorf("-dir must not be empty")
	}
	if s.Workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", s.Workers)
	}
	return nil
}
