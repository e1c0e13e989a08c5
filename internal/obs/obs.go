// Package obs is the campaign-observability layer: it observes the
// simulator and its campaigns, where the other five layers (telemetry,
// pipetrace, injection, crossval, propagation — docs/observability.md)
// observe the simulated pipeline. It answers the operational questions a
// long multi-configuration campaign raises: what is running right now,
// how fast, how far along, which run produced this artifact.
//
// Three pieces:
//
//   - Registry (registry.go): a lock-cheap typed metrics registry —
//     counters and gauges — exposed as OpenMetrics/Prometheus text
//     (openmetrics.go) at /debug/metrics on the telemetry debug server.
//     It is the one home of every live metric: campaign.Build has the
//     fault campaign, the propagation tracer and the CPI-stack observer
//     publish theirs (inject.*, inject.prop.*, cpistack.*, occupancy.*)
//     on the run's Observability.Registry, and a telemetry.Collector
//     advances sim.* on the registry in its options.
//
//   - Ledger (ledger.go): an append-only runs.jsonl of versioned
//     RunManifest records — config digest, seeds, workloads, cycle and
//     strike counts, artifact index, exit status — one per run, sweep
//     point, inject campaign, and crossval seed, surfaced as
//     `avfreport -runs`.
//
//   - Progress (progress.go): phase-aware progress tracking with
//     periodic heartbeats (cycles/s, completion fraction, ETA) emitted
//     to slog and served as JSON at /debug/progress.
//
// The package depends only on the standard library and internal/jsonlio,
// so every subsystem (telemetry, campaign, inject, propagation, cpistack)
// can attach to it without import cycles. docs/campaigns.md documents the ledger schema, the
// OpenMetrics name table, and the scrape recipes.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Observability bundles the campaign-observability handles one run (or
// one whole campaign) carries: the metrics registry, the progress
// tracker, and the run ledger. Any field may be nil — each consumer
// nil-checks the piece it feeds. Unlike the pipeline observers, an
// Observability watches the campaign, not the cycle timeline.
type Observability struct {
	// Registry receives live metrics (nil: no metrics surface).
	Registry *Registry
	// Progress receives phase/heartbeat updates (nil: no progress surface).
	Progress *Progress
	// Ledger receives one RunManifest per run (nil: no provenance record).
	Ledger *Ledger
	// Program names the driving command in auto-appended run records.
	Program string
}

// ConfigDigest returns a short stable fingerprint of a configuration —
// sha256 over its JSON encoding — so a ledger record can be matched to
// the exact machine configuration that produced it.
func ConfigDigest(cfg any) string {
	data, err := json.Marshal(cfg)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}
