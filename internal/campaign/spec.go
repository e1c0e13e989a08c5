// Package campaign defines the one versioned, JSON-(de)serializable
// campaign specification every smtavf program consumes — smtsim, avfreport,
// the experiments runner, and the cmd/avfd job service all run the same
// Spec, so a campaign submitted over HTTP is byte-for-byte the campaign a
// CLI would run.
//
// A Spec names a workload source (a Table 2 mix, explicit benchmarks, or
// recorded trace files), the machine (fetch policy, seed, an optional full
// core.Config override), the execution shape (instruction budget and
// warmup), and at most one experiment kind beyond the plain run:
// fault-injection cross-validation, a fault-propagation atlas, or the
// CPI-stack explainability study. Every Spec runs through one path:
// Resolve joins it with the caller's defaults and Resolved.Build assembles
// the run in Build.
//
// The package also carries the campaign job service behind cmd/avfd: a
// Matrix fans one base Spec out into points, a Service executes points on
// a bounded worker pool with per-point results persisted for resume, and
// NewMux exposes the HTTP/JSON API. See docs/campaign-service.md.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"smtavf/internal/avf"
	"smtavf/internal/core"
	"smtavf/internal/fetch"
	"smtavf/internal/inject"
	"smtavf/internal/propagation"
	"smtavf/internal/trace"
	"smtavf/internal/workload"
)

// SpecVersion identifies the Spec JSON schema; bump when renaming or
// removing fields.
const SpecVersion = 1

// Kind classifies what a Spec runs.
type Kind string

// Campaign kinds. A Spec with none of the experiment sections is a plain
// KindRun: one simulation, optionally with an attached strike campaign.
const (
	KindRun         Kind = "run"
	KindCrossVal    Kind = "crossval"
	KindPropagation Kind = "propagation"
	KindExplain     Kind = "explain"
)

// Spec is one campaign point: everything needed to reproduce a run, in
// one JSON document.
type Spec struct {
	// V is the schema version (SpecVersion; 0 is normalized to it).
	V int `json:"v"`
	// Name labels the point in service results and logs (optional; the
	// Matrix expansion fills it for fanned-out points).
	Name string `json:"name,omitempty"`

	// Exactly one workload source: a Table 2 mix name, explicit
	// benchmark names, or trace files recorded by cmd/tracegen.
	Mix        string   `json:"mix,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	TraceFiles []string `json:"trace_files,omitempty"`

	// Policy is the fetch policy name (default ICOUNT).
	Policy string `json:"policy,omitempty"`
	// Seed seeds the simulation (0: the runner's default, then 1).
	Seed uint64 `json:"seed,omitempty"`
	// Instructions is the total committed-instruction budget (0: the
	// runner's context-scaled budget).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup is the instructions committed before measurement; 0 with
	// NoWarmup false inherits the runner's default, NoWarmup true forces
	// a cold start (the distinction keeps 0 round-trippable).
	Warmup   uint64 `json:"warmup,omitempty"`
	NoWarmup bool   `json:"no_warmup,omitempty"`
	// PhaseInterval samples per-interval IPC/AVF every N cycles (0: off).
	PhaseInterval uint64 `json:"phase_interval,omitempty"`

	// Machine overrides the default Table 1 configuration wholesale
	// (Threads is still forced from the workload, and Policy/Seed/Warmup
	// from the fields above — the workload decides the context count).
	Machine *core.Config `json:"machine,omitempty"`
	// Protection maps structure names (avf.Struct.String) to "none",
	// "parity", or "ecc" for strike-outcome classification.
	Protection map[string]string `json:"protection,omitempty"`

	// Inject attaches a statistical fault-injection campaign to a run
	// (and parameterizes the crossval/propagation kinds' campaigns).
	Inject *InjectSpec `json:"inject,omitempty"`
	// At most one experiment kind:
	CrossVal    *CrossValSpec    `json:"crossval,omitempty"`
	Propagation *PropagationSpec `json:"propagation,omitempty"`
	Explain     *ExplainSpec     `json:"explain,omitempty"`
}

// InjectSpec parameterizes the strike campaign of a run or experiment.
type InjectSpec struct {
	// Every is the sample-grid pitch in cycles (default 1: exact).
	Every uint64 `json:"every,omitempty"`
	// Seed seeds the campaign (0: the simulation seed). Ignored by the
	// crossval kind, whose fanout seeds both per seed.
	Seed uint64 `json:"seed,omitempty"`
	// Stop is the sequential stopping rule (zero value: defaults).
	Stop inject.Stop `json:"stop,omitempty"`
}

// CrossValSpec selects the ACE-vs-injection cross-validation kind: one
// simulation plus strike campaign per seed, pooled into one report.
type CrossValSpec struct {
	// Seeds fan out the campaign (each also seeds its simulation);
	// empty defaults to {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// PropagationSpec selects the fault-propagation atlas kind.
type PropagationSpec struct {
	// Strikes sampled into each structure for taint tracking
	// (default 256).
	Strikes int `json:"strikes,omitempty"`
	// Options tunes the tracer's capture and expansion bounds.
	Options propagation.Options `json:"options,omitempty"`
}

// ExplainSpec selects the CPI-stack explainability kind: the workload
// runs once per policy with the occupancy-by-fate observer attached.
type ExplainSpec struct {
	// Policies compared (default ICOUNT/STALL/FLUSH).
	Policies []string `json:"policies,omitempty"`
}

// Kind returns what the spec runs.
func (s Spec) Kind() Kind {
	switch {
	case s.CrossVal != nil:
		return KindCrossVal
	case s.Propagation != nil:
		return KindPropagation
	case s.Explain != nil:
		return KindExplain
	default:
		return KindRun
	}
}

// PolicyName returns the fetch policy, defaulted.
func (s Spec) PolicyName() string {
	if s.Policy == "" {
		return "ICOUNT"
	}
	return s.Policy
}

// ResolveBenchmarks resolves the benchmark names of a mix- or
// benchmark-sourced spec; trace-file specs have none.
func (s Spec) ResolveBenchmarks() ([]string, error) {
	if s.Mix != "" {
		for _, m := range workload.Mixes() {
			if m.Name() == s.Mix {
				return m.Benchmarks, nil
			}
		}
		return nil, fmt.Errorf("campaign: unknown mix %q", s.Mix)
	}
	if len(s.Benchmarks) > 0 {
		return s.Benchmarks, nil
	}
	return nil, fmt.Errorf("campaign: spec needs a mix, benchmarks, or trace_files")
}

// WorkloadIDs returns the identifiers a run manifest carries: benchmark
// names, or trace paths for a replay spec.
func (s Spec) WorkloadIDs() []string {
	if len(s.TraceFiles) > 0 {
		return s.TraceFiles
	}
	names, _ := s.ResolveBenchmarks()
	return names
}

// WorkloadName is the label reports carry: the mix name, or the
// "+"-joined benchmark names / trace paths.
func (s Spec) WorkloadName() string {
	if s.Mix != "" {
		return s.Mix
	}
	name := ""
	for i, b := range s.WorkloadIDs() {
		if i > 0 {
			name += "+"
		}
		name += b
	}
	return name
}

// Threads is the hardware context count the workload implies.
func (s Spec) Threads() int {
	if len(s.TraceFiles) > 0 {
		return len(s.TraceFiles)
	}
	names, _ := s.ResolveBenchmarks()
	return len(names)
}

// Validate checks the structural rules: a supported version, exactly one
// workload source, at most one experiment kind, experiment kinds
// benchmark-sourced, known fetch policies, an inject stopping rule in
// range, and a parseable protection map. Workload names and the machine
// are checked by Resolve.
func (s Spec) Validate() error {
	if s.V != 0 && s.V != SpecVersion {
		return fmt.Errorf("campaign: spec schema v%d is not supported (want v%d)", s.V, SpecVersion)
	}
	sources := 0
	if s.Mix != "" {
		sources++
	}
	if len(s.Benchmarks) > 0 {
		sources++
	}
	if len(s.TraceFiles) > 0 {
		sources++
	}
	if sources == 0 {
		return fmt.Errorf("campaign: spec needs a mix, benchmarks, or trace_files")
	}
	if sources > 1 {
		return fmt.Errorf("campaign: mix, benchmarks, and trace_files are mutually exclusive; give exactly one")
	}
	kinds := 0
	for _, on := range []bool{s.CrossVal != nil, s.Propagation != nil, s.Explain != nil} {
		if on {
			kinds++
		}
	}
	if kinds > 1 {
		return fmt.Errorf("campaign: crossval, propagation, and explain are mutually exclusive; give at most one")
	}
	if s.Kind() != KindRun && len(s.TraceFiles) > 0 {
		return fmt.Errorf("campaign: the %s kind needs benchmark profiles; trace_files only run the plain run kind", s.Kind())
	}
	if pr := s.Propagation; pr != nil {
		// 0 selects a default; withDefaults would turn a negative bound
		// into its default too, so a spec asking for one is refused.
		o := pr.Options
		for _, f := range []struct {
			name string
			v    int
		}{
			{"strikes", pr.Strikes}, {"options cap", o.Cap}, {"options max_hops", o.MaxHops},
			{"options max_nodes", o.MaxNodes}, {"options max_recorded_hops", o.MaxRecordedHops},
		} {
			if f.v < 0 {
				return fmt.Errorf("campaign: propagation %s must be non-negative, got %d", f.name, f.v)
			}
		}
	}
	if s.Inject != nil {
		// 0 selects a default (confidence, max_strikes, batch) or, for
		// half_width, no CI target; the negated ranges also reject NaN.
		stop := s.Inject.Stop
		switch {
		case !(stop.Confidence >= 0 && stop.Confidence < 1):
			return fmt.Errorf("campaign: inject stop confidence must be in [0, 1), got %v", stop.Confidence)
		case !(stop.HalfWidth >= 0 && stop.HalfWidth < 1):
			return fmt.Errorf("campaign: inject stop half_width must be in [0, 1), got %v", stop.HalfWidth)
		case stop.MaxStrikes < 0:
			return fmt.Errorf("campaign: inject stop max_strikes must be non-negative, got %d", stop.MaxStrikes)
		case stop.Batch < 0:
			return fmt.Errorf("campaign: inject stop batch must be non-negative, got %d", stop.Batch)
		}
	}
	policies := []string{s.Policy}
	if s.Explain != nil {
		policies = append(policies, s.Explain.Policies...)
	}
	for _, name := range policies {
		if name != "" && fetch.ByName(name) == nil {
			return fmt.Errorf("campaign: unknown fetch policy %q", name)
		}
	}
	if _, err := ParseProtection(s.Protection); err != nil {
		return err
	}
	return nil
}

// ParseProtection maps structure names onto core.ProtectionModes; nil and
// empty maps mean all silent.
func ParseProtection(m map[string]string) (core.ProtectionModes, error) {
	var p core.ProtectionModes
	for name, mode := range m {
		s, err := avf.ParseStruct(name)
		if err != nil {
			return p, fmt.Errorf("campaign: protection: %w", err)
		}
		switch mode {
		case "none":
			p[s] = core.ProtectNone
		case "parity":
			p[s] = core.ProtectParity
		case "ecc":
			p[s] = core.ProtectECC
		default:
			return p, fmt.Errorf("campaign: protection %s=%q (want none, parity, or ecc)", name, mode)
		}
	}
	return p, nil
}

// Defaults supplies the caller-level fallbacks a Spec resolves against —
// the experiments runner passes its Options-derived seed, warmup and
// budget rule here, so a spec run through the runner behaves exactly like
// the per-kind methods it replaced.
type Defaults struct {
	// Seed backs Spec.Seed when 0 (then 1).
	Seed uint64
	// Warmup backs Spec.Warmup when 0 and NoWarmup is false.
	Warmup uint64
	// Budget backs Spec.Instructions when 0 (nil leaves the quota 0).
	Budget func(contexts int) uint64
}

// Resolved is a Spec joined with its Defaults: the concrete machine
// configuration, workload profiles, quotas, and campaign parameters an
// executor runs.
type Resolved struct {
	Spec       Spec
	Title      string // WorkloadName
	Threads    int
	Config     core.Config
	Profiles   []trace.Profile // nil for trace replay
	Protection core.ProtectionModes
	// Quota is the committed-instruction budget (0 when neither the spec
	// nor the defaults supplied one — executors must reject that).
	Quota uint64
	// Every/Stop/CampaignSeed parameterize the strike campaign.
	Every        uint64
	Stop         inject.Stop
	CampaignSeed uint64
	// Seeds is the crossval fanout (default {1}).
	Seeds []uint64
}

// Resolve validates the spec and joins it with the defaults; the resolved
// machine configuration is validated too, so a bad Machine override fails
// here rather than inside a run.
func (s Spec) Resolve(d Defaults) (*Resolved, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rv := &Resolved{Spec: s, Title: s.WorkloadName()}
	if len(s.TraceFiles) > 0 {
		rv.Threads = len(s.TraceFiles)
	} else {
		names, err := s.ResolveBenchmarks()
		if err != nil {
			return nil, err
		}
		rv.Threads = len(names)
		rv.Profiles = make([]trace.Profile, 0, len(names))
		for _, b := range names {
			p, err := workload.Profile(b)
			if err != nil {
				return nil, err
			}
			rv.Profiles = append(rv.Profiles, p)
		}
	}

	cfg := core.DefaultConfig(rv.Threads)
	if s.Machine != nil {
		cfg = *s.Machine
		cfg.Threads = rv.Threads // the workload decides the context count
	}
	seed := s.Seed
	if seed == 0 {
		seed = d.Seed
	}
	if seed == 0 {
		seed = 1
	}
	cfg.Seed = seed
	switch {
	case s.NoWarmup:
		cfg.Warmup = 0
	case s.Warmup != 0:
		cfg.Warmup = s.Warmup
	default:
		cfg.Warmup = d.Warmup
	}
	cfg.PhaseInterval = s.PhaseInterval
	if err := cfg.SetPolicy(s.PolicyName()); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rv.Config = cfg

	rv.Protection, _ = ParseProtection(s.Protection) // Validate vetted it
	rv.Quota = s.Instructions
	if rv.Quota == 0 && d.Budget != nil {
		rv.Quota = d.Budget(rv.Threads)
	}

	rv.Every = 1
	if s.Inject != nil {
		if s.Inject.Every != 0 {
			rv.Every = s.Inject.Every
		}
		rv.Stop = s.Inject.Stop
		rv.CampaignSeed = s.Inject.Seed
	}
	if rv.CampaignSeed == 0 {
		rv.CampaignSeed = cfg.Seed
	}
	if s.CrossVal != nil {
		rv.Seeds = s.CrossVal.Seeds
	}
	if len(rv.Seeds) == 0 {
		rv.Seeds = []uint64{1}
	}
	return rv, nil
}

// ReadFile loads the points of a spec file: one Spec, or a Matrix (a
// document with a "base"), the body avfd accepts. Decoding is strict, so
// a misspelt field anywhere, machine configurations included, is an
// error rather than a silently defaulted setting. A Spec is returned as
// the only point, a Matrix is expanded, and every point must resolve
// (Resolve with zero Defaults, which reads no trace file).
func ReadFile(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var points []Spec
	if _, ok := keys["base"]; ok {
		var m Matrix
		if err = dec.Decode(&m); err == nil {
			points, err = m.Points()
		}
	} else {
		var s Spec
		if err = dec.Decode(&s); err == nil {
			_, err = s.Resolve(Defaults{})
		}
		s.V = SpecVersion
		points = []Spec{s}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return points, nil
}

// MarshalIndent renders the spec as stable, human-diffable JSON (the
// smtsim -dumpspec output and the stored service points).
func (s Spec) MarshalIndent() ([]byte, error) {
	s.V = SpecVersion
	return json.MarshalIndent(s, "", "  ")
}
