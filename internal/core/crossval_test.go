package core

import (
	"testing"

	"smtavf/internal/avf"
	"smtavf/internal/crossval"
	"smtavf/internal/inject"
)

// runCrossVal simulates gcc+twolf with a campaign attached and returns
// the agreement report between the tracker and the strike experiment.
func runCrossVal(t *testing.T, warmup uint64, prot ProtectionModes) (*crossval.Report, *inject.Stats) {
	t.Helper()
	cfg := DefaultConfig(2)
	cfg.Warmup = warmup
	camp, err := inject.NewCampaign(StructBits(cfg), 1, 12345)
	if err != nil {
		t.Fatal(err)
	}
	camp.SetProtection(prot.Detections())
	proc, err := New(cfg, profilesFor(t, []string{"gcc", "twolf"}))
	if err != nil {
		t.Fatal(err)
	}
	proc.AttachSink(camp)
	res, err := proc.Run(Limits{TotalInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	stats := camp.RunStrikes(res.Cycles, inject.StopWhen(0.02, 1<<20))
	var tracker [avf.NumStructs]float64
	for s := range tracker {
		tracker[s] = res.StructAVF(avf.Struct(s))
	}
	meta := crossval.Meta{Workload: "gcc+twolf", Policy: "ICOUNT", Seed: 12345, Seeds: 1, Every: 1, Cycles: res.Cycles}
	return crossval.Build(meta, tracker, stats), stats
}

// TestCrossValReportAgreesWithTracker is the acceptance criterion of the
// injection observatory: on a seed workload, every unprotected
// structure's tracker AVF must sit inside the strike experiment's 99%
// confidence interval — with and without a warmup rebase (the campaign
// re-anchors its grid when the tracker rebases, so the two observers
// cover the same measurement window either way).
func TestCrossValReportAgreesWithTracker(t *testing.T) {
	for _, tc := range []struct {
		name   string
		warmup uint64
	}{
		{"no-warmup", 0},
		{"warmup-rebase", 5_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, stats := runCrossVal(t, tc.warmup, ProtectionModes{})
			if len(rep.Entries) != int(avf.NumStructs) {
				t.Fatalf("entries = %d, want every structure", len(rep.Entries))
			}
			if !rep.Pass() {
				t.Errorf("cross-validation failed:\n%s", rep.Table())
			}
			if !stats.StoppedEarly {
				t.Errorf("the 0.02 half-width target should stop the campaign early (ran %d strikes)", stats.TotalStrikes)
			}
			for _, e := range rep.Entries {
				if e.HalfWidth > 0.02 {
					t.Errorf("%s: half-width %.4f above the 0.02 stopping target", e.Struct, e.HalfWidth)
				}
			}
		})
	}
}

// TestCrossValProtectionTaxonomy: protected structures classify their ACE
// strikes as detected (parity → DUE) or corrected (ECC) instead of
// silent corruption — and the AVF agreement is unchanged, because
// detection reclassifies strikes without moving the estimate.
func TestCrossValProtectionTaxonomy(t *testing.T) {
	var prot ProtectionModes
	prot[avf.IQ] = ProtectParity
	prot[avf.ROB] = ProtectECC
	rep, stats := runCrossVal(t, 0, prot)
	if !rep.Pass() {
		t.Errorf("protection must not change the AVF estimates:\n%s", rep.Table())
	}
	iq := stats.PerStruct[avf.IQ]
	if iq.Outcomes[inject.SDC] != 0 || iq.Outcomes[inject.DUE] != iq.ACEStrikes() {
		t.Errorf("parity IQ: outcomes %v, want all ACE strikes as DUE", iq.Outcomes)
	}
	rob := stats.PerStruct[avf.ROB]
	if rob.Outcomes[inject.SDC] != 0 || rob.Outcomes[inject.Corrected] != rob.ACEStrikes() {
		t.Errorf("ECC ROB: outcomes %v, want all ACE strikes corrected", rob.Outcomes)
	}
	reg := stats.PerStruct[avf.Reg]
	if reg.Outcomes[inject.DUE] != 0 || reg.Outcomes[inject.Corrected] != 0 {
		t.Errorf("unprotected Reg: outcomes %v, want silent corruption only", reg.Outcomes)
	}
	for _, e := range rep.Entries {
		switch e.Struct {
		case avf.IQ.String():
			if e.Protection != "parity" {
				t.Errorf("IQ protection label = %q", e.Protection)
			}
		case avf.ROB.String():
			if e.Protection != "ecc" {
				t.Errorf("ROB protection label = %q", e.Protection)
			}
		default:
			if e.Protection != "none" {
				t.Errorf("%s protection label = %q", e.Struct, e.Protection)
			}
		}
	}
}

// TestProtectionModesDetections pins the core → inject mapping.
func TestProtectionModesDetections(t *testing.T) {
	var p ProtectionModes
	p[avf.IQ] = ProtectParity
	p[avf.ROB] = ProtectECC
	d := p.Detections()
	if d[avf.IQ] != inject.DetectOnly || d[avf.ROB] != inject.DetectCorrect || d[avf.Reg] != inject.DetectNone {
		t.Errorf("Detections() = %v", d)
	}
	if ProtectParity.String() != "parity" || ProtectECC.String() != "ecc" || ProtectNone.String() != "none" {
		t.Error("ProtectionMode strings changed")
	}
}
