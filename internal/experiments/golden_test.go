package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"smtavf/internal/campaign"
	"smtavf/internal/inject"
)

// reportGolden pins the SHA-256 of every report the runner renders at
// Options{Base: 4000, Seed: 1}: the paper tables and figures, the
// extension studies, a provenance table set, and the JSON results of five
// campaign points (one per executor path). Any change to how a run is
// assembled or observed that moves a single number moves a digest.
var reportGolden = map[string]string{
	"table1":               "5bb88e183297d5b971884c04cb22e27b5bf9c7c2c5144abd47f3e22f5796328d",
	"table2":               "f2fe29407e746d720d061e1b916917b3983b26667f85704d590995394730b168",
	"figure1":              "5e8ab3f0b9242d62c3d33ec6963f850df6f5bfa502effaa4094567aaec74da38",
	"figure2":              "9a9d6afa3838649b6a717a608f241b63dab96633aa1e1023ac3a89ee0d4d0e1a",
	"figure3":              "aa4569a1900fe1a5a76e21391606c6cdaff68df88226bf72e50ade8784315e02",
	"figure4":              "89a177deead7a40fd85d6f165a0977c94afb99f2c54e4c4ab70a1f2b3e244889",
	"figure5":              "4925b9dc65de01e50f9403f53b6b0219d42cf54fb1d7d04deb95e25b3c2124e7",
	"figure6":              "5305a11b92f815ab860076450a2fdaecd031bd93b000f27a32d5ec1463e40c52",
	"figure7":              "2dff39a39edf2af7d28b38a0a0cc332102d63d5834a402e5cb47814bd6225939",
	"figure8":              "1d2ffee83f464af8147db1f0312477babe2b05c94daa962e76d0a7d1cacd3ef3",
	"extensions":           "6ca006f3505190460e41ec81d5bc51232968f59858ad2ace5ac0bcac8995dcfa",
	"sensitivity":          "aaa14e57ede325416c8a9a846300001dffbd7af8f7f969e54f3c331f1434addf",
	"stability":            "ab284eeea3f3c5a3f3bbf82862a23c1fc2c833794f731955612b3ea0dffb5cc9",
	"provenance":           "b7e8b90615b49439fe6f5aa247e7cdf31802ca662e1a859c351ea3af79adea6c",
	"campaign/plain":       "ccc782444f7af63dc8a8c28325f8c6b62ea360e62cdc1fc3657d44472a99846c",
	"campaign/inject":      "64e983e82db46f8a9c460222b494cdfc94ee464dffa1a6ac09640f2d63d82e50",
	"campaign/crossval":    "5b78ed202dd55fae2715201f00344b71df305b5694e4b134b3472345e43b805d",
	"campaign/propagation": "2f7f5f0af4f03fa27d988b77c27b25a2c8436a48a9f7707f9e308f247082b85e",
	"campaign/explain":     "b2be0cf5fcfc665feb475530a8b9dc3bdbe6654e63f8919cdbf20939bcdf65ba",
}

// goldenCampaigns are the campaign points TestReportGolden hashes: a plain
// run, a run with a protected strike campaign, a 2-seed cross-validation,
// a propagation atlas and an explain study.
func goldenCampaigns() map[string]campaign.Spec {
	stop := inject.Stop{MaxStrikes: 200}
	return map[string]campaign.Spec{
		"plain": {Mix: "2ctx-MIX-A"},
		"inject": {Mix: "2ctx-CPU-A", Policy: "STALL",
			Protection: map[string]string{"IQ": "ecc", "ROB": "parity"},
			Inject:     &campaign.InjectSpec{Every: 4, Stop: stop}},
		"crossval": {Mix: "2ctx-CPU-A", Inject: &campaign.InjectSpec{Every: 4, Stop: stop},
			CrossVal: &campaign.CrossValSpec{Seeds: []uint64{1, 2}}},
		"propagation": {Mix: "2ctx-MIX-A", Policy: "FLUSH",
			Propagation: &campaign.PropagationSpec{Strikes: 32}},
		"explain": {Mix: "2ctx-MIX-A", Explain: &campaign.ExplainSpec{Policies: []string{"ICOUNT", "FLUSH"}}},
	}
}

func renderTables(ts ...*Table) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full report")
	}
	r := NewRunner(Options{Base: 4000, Seed: 1})
	if err := r.Preload(AllSpecs()); err != nil {
		t.Fatal(err)
	}
	if err := r.PreloadSingles(); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"table1": Table1(),
		"table2": Table2(),
	}
	one := func(f func() (*Table, error)) func() ([]*Table, error) {
		return func() ([]*Table, error) {
			t, err := f()
			return []*Table{t}, err
		}
	}
	for name, f := range map[string]func() ([]*Table, error){
		"figure1":     one(r.Figure1),
		"figure2":     one(r.Figure2),
		"figure3":     one(r.Figure3),
		"figure4":     one(r.Figure4),
		"figure5":     r.Figure5,
		"figure6":     r.Figure6,
		"figure7":     one(r.Figure7),
		"figure8":     r.Figure8,
		"extensions":  one(r.Extensions),
		"sensitivity": r.Sensitivity,
		"stability":   func() ([]*Table, error) { return r.Stability(2) },
		"provenance":  func() ([]*Table, error) { return r.Provenance("2ctx-MIX-A", "ICOUNT", 5) },
	} {
		ts, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = renderTables(ts...)
	}
	for name, spec := range goldenCampaigns() {
		res, err := r.Campaign(spec)
		if err != nil {
			t.Fatalf("campaign/%s: %v", name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Atlas != nil {
			data = append(data, res.Atlas.Tables(5)...)
		}
		got["campaign/"+name] = string(data)
	}

	for name, want := range reportGolden {
		text, ok := got[name]
		if !ok {
			t.Errorf("%s: not rendered", name)
			continue
		}
		sum := sha256.Sum256([]byte(text))
		if d := hex.EncodeToString(sum[:]); d != want {
			t.Errorf("%s digest = %s, want %s", name, d, want)
		}
	}
	if len(got) != len(reportGolden) {
		t.Errorf("rendered %d reports, pinned %d", len(got), len(reportGolden))
	}
}
