package smtavf

import (
	"smtavf/internal/campaign"
)

// CampaignSpec is the one versioned, JSON-(de)serializable campaign
// specification every driver consumes — the experiments runner, the
// smtsim/avfsweep/avfreport CLIs, and the cmd/avfd job service all run
// the same spec, so a campaign submitted over HTTP is byte-for-byte the
// campaign a CLI would run. See docs/campaign-service.md for the schema.
type CampaignSpec = campaign.Spec

// CampaignMatrix fans one base CampaignSpec out over policy/mix/seed axes
// — the POST /v1/campaigns submission body.
type CampaignMatrix = campaign.Matrix

// CampaignResult is one executed campaign point as the service streams
// and persists it.
type CampaignResult = campaign.Result

// CampaignSpecVersion is the current spec schema version.
const CampaignSpecVersion = campaign.SpecVersion

// ReadCampaignSpec loads and validates a CampaignSpec from a JSON file
// (the smtsim -spec input).
func ReadCampaignSpec(path string) (CampaignSpec, error) {
	return campaign.ReadSpecFile(path)
}

// SpecConfig resolves a campaign spec into the concrete machine
// configuration it runs — workload-derived thread count, policy, seed,
// warmup, and any Machine override applied, exactly as the experiments
// runner resolves it (with the library defaults: seed 1, no budget rule).
func SpecConfig(spec CampaignSpec) (Config, error) {
	rv, err := spec.Resolve(campaign.Defaults{})
	if err != nil {
		return Config{}, err
	}
	return rv.Config, nil
}

// SpecOptions converts a campaign spec's workload source and shard shape
// into facade options for New, so a CLI can layer its own observers on
// top of a spec-defined run:
//
//	cfg, _ := smtavf.SpecConfig(spec)
//	opts, _ := smtavf.SpecOptions(spec)
//	sim, _ := smtavf.New(cfg, append(opts, smtavf.WithTelemetry(col))...)
func SpecOptions(spec CampaignSpec) ([]Option, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shards := spec.Shards
	if shards < 1 {
		shards = 1
	}
	opts := []Option{WithShards(shards, spec.ShardWorkers)}
	if spec.ShardWarmupWindow != 0 {
		opts = append(opts, WithShardWarmupWindow(spec.ShardWarmupWindow))
	}
	if len(spec.TraceFiles) > 0 {
		opts = append(opts, WithTraceFiles(spec.TraceFiles...))
		return opts, nil
	}
	names, err := spec.ResolveBenchmarks()
	if err != nil {
		return nil, err
	}
	opts = append(opts, WithBenchmarks(names...))
	return opts, nil
}

// SpecProtection resolves a spec's protection map into the per-structure
// modes the strike campaign classifies against.
func SpecProtection(spec CampaignSpec) (ProtectionModes, error) {
	return campaign.ParseProtection(spec.Protection)
}
