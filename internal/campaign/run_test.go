package campaign

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"smtavf/internal/cpistack"
	"smtavf/internal/obs"
	"smtavf/internal/propagation"
	"smtavf/internal/telemetry"
)

// docFamilies reads the OpenMetrics family table of docs/campaigns.md and
// returns, in table order, every family it names as "# TYPE" lines,
// expanding "{a, b}" alternatives and substituting one structure (IQ) and
// one CPI-stack component (base) for the <STRUCT> and <component>
// placeholders.
func docFamilies(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../docs/campaigns.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`([^`]+)`")
	alt := regexp.MustCompile(`^(.*)\{([^}]*)\}(.*)$`)
	var fams []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `smtavf_") {
			continue
		}
		cells := strings.Split(line, "|")
		typ := strings.TrimSpace(cells[2])
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			names := []string{m[1]}
			if a := alt.FindStringSubmatch(m[1]); a != nil {
				names = names[:0]
				for _, v := range strings.Split(a[2], ",") {
					names = append(names, a[1]+strings.TrimSpace(v)+a[3])
				}
			}
			for _, n := range names {
				n = strings.NewReplacer("<STRUCT>", "IQ", "<component>", "base").Replace(n)
				fams = append(fams, "# TYPE "+n+" "+typ+"\n")
			}
		}
	}
	if len(fams) < 20 {
		t.Fatalf("docs/campaigns.md names %d families; is the table still there?", len(fams))
	}
	return fams
}

// TestBuildPublishesEveryFamily: a Build carrying a registry, a
// collector on it and every publishing observer registers each family of
// docs/campaigns.md's table, with the type the table gives it.
func TestBuildPublishesEveryFamily(t *testing.T) {
	rv, err := Spec{Benchmarks: []string{"gcc", "mcf"}, Instructions: 2000}.Resolve(Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := rv.StrikeCampaign()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := rv.Build(Options{
		Obs:         &obs.Observability{Registry: reg, Progress: obs.NewProgress(obs.ProgressOptions{Heartbeat: -1, Registry: reg})},
		Telemetry:   telemetry.New(telemetry.Options{Registry: reg}),
		Inject:      camp,
		Propagation: propagation.New(propagation.Options{}),
		CPIStack:    cpistack.New(cpistack.Options{}),
	}); err != nil {
		t.Fatal(err)
	}
	var exp strings.Builder
	if err := reg.WriteOpenMetrics(&exp); err != nil {
		t.Fatal(err)
	}
	for _, fam := range docFamilies(t) {
		if !strings.Contains(exp.String(), fam) {
			t.Errorf("not registered: %s", strings.TrimSpace(fam))
		}
	}
}
