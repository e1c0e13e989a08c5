package campaign

import (
	"encoding/json"
	"fmt"

	"smtavf/internal/core"
)

// MaxPoints bounds a single submission's expansion — a guard against a
// typo'd axis turning into a week of simulation.
const MaxPoints = 4096

// Matrix is the submission form of a campaign: one base Spec fanned out
// over optional axes. Empty axes contribute a single "inherit the base"
// element, so the expansion is the cross product of whatever is listed.
type Matrix struct {
	V int `json:"v"`
	// Name labels the campaign in the service.
	Name string `json:"name,omitempty"`
	// Base is the spec every point starts from.
	Base Spec `json:"base"`
	// Axes: each listed value overrides the corresponding Base field.
	Policies []string `json:"policies,omitempty"`
	Mixes    []string `json:"mixes,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	// Machines are core.Config JSON patches such as {"IQSize":48}, each
	// applied onto Base.Machine, or onto the workload's Table 1 default
	// when the base has none, to give the point's machine override.
	Machines []json.RawMessage `json:"machines,omitempty"`
}

// Points expands the matrix into its campaign points, deterministically:
// mixes outermost, then policies, then machines, then seeds — the
// iteration order a sweep table reads naturally. A machine patch naming
// an unknown field is an error, and every patched point must resolve
// (Resolve with zero Defaults), so a point that cannot run is refused
// before anything is stored.
func (m Matrix) Points() ([]Spec, error) {
	if m.V != 0 && m.V != SpecVersion {
		return nil, fmt.Errorf("campaign: matrix schema v%d is not supported (want v%d)", m.V, SpecVersion)
	}
	mixes := m.Mixes
	if len(mixes) == 0 {
		mixes = []string{""}
	}
	policies := m.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	machines := m.Machines
	if len(machines) == 0 {
		machines = []json.RawMessage{nil}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	n := len(mixes) * len(policies) * len(machines) * len(seeds)
	if n > MaxPoints {
		return nil, fmt.Errorf("campaign: matrix expands to %d points (max %d)", n, MaxPoints)
	}
	points := make([]Spec, 0, n)
	for _, mix := range mixes {
		for _, policy := range policies {
			for mi, patch := range machines {
				for _, seed := range seeds {
					p := m.Base
					p.V = SpecVersion
					if mix != "" {
						p.Mix = mix
						p.Benchmarks = nil
						p.TraceFiles = nil
					}
					if policy != "" {
						p.Policy = policy
					}
					if seed != 0 {
						p.Seed = seed
					}
					p.Name = pointName(m.Base.Name, p, len(mixes) > 1, len(policies) > 1, len(machines) > 1, mi, len(seeds) > 1)
					var err error
					if patch != nil {
						p.Machine, err = applyPatch(p, patch)
					}
					if err == nil {
						_, err = p.Resolve(Defaults{})
					}
					if err != nil {
						return nil, fmt.Errorf("point %d (%s): %w", len(points), p.Name, err)
					}
					points = append(points, p)
				}
			}
		}
	}
	return points, nil
}

// applyPatch decodes a machine patch onto a copy of p's machine override,
// or of the Table 1 machine for p's workload when p has none.
func applyPatch(p Spec, patch json.RawMessage) (*core.Config, error) {
	cfg := core.DefaultConfig(p.Threads())
	if p.Machine != nil {
		cfg = *p.Machine
	}
	if err := json.Unmarshal(patch, &cfg); err != nil {
		return nil, fmt.Errorf("campaign: machine patch %s: %w", patch, err)
	}
	return &cfg, nil
}

// pointName labels an expanded point with the axes that vary, so streams
// and status payloads read without cross-referencing indices; machine is
// the point's index on the machine axis.
func pointName(base string, p Spec, byMix, byPolicy, byMachine bool, machine int, bySeed bool) string {
	name := base
	add := func(part string) {
		if name == "" {
			name = part
			return
		}
		name += "/" + part
	}
	if byMix {
		add(p.WorkloadName())
	}
	if byPolicy {
		add(p.PolicyName())
	}
	if byMachine {
		add(fmt.Sprintf("machine%d", machine))
	}
	if bySeed {
		add(fmt.Sprintf("seed%d", p.Seed))
	}
	if name == "" {
		name = p.WorkloadName()
	}
	return name
}
