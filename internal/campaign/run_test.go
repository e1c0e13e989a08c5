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

// TestRunProgressFollowsRun: a Build given a Progress and no collector
// still advances the run phase window by window, and the phase's total
// counts the warmup commits its done count includes.
func TestRunProgressFollowsRun(t *testing.T) {
	rv, err := Spec{Benchmarks: []string{"gcc", "mcf"}, Instructions: 6_000, Warmup: 2_000}.Resolve(Defaults{})
	if err != nil {
		t.Fatal(err)
	}
	prog := obs.NewProgress(obs.ProgressOptions{Heartbeat: -1})
	res, err := rv.Run(Options{Obs: &obs.Observability{Progress: prog}})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.Phase != "run" || snap.Total != 8_000 {
		t.Fatalf("run phase %q totals %d, want run over 8000 (warmup + measured)", snap.Phase, snap.Total)
	}
	if width := uint64(rv.Config.CommitWidth); snap.Done < snap.Total || snap.Done-snap.Total > width {
		t.Errorf("run phase ended at done=%d, want within %d of total %d", snap.Done, width, snap.Total)
	}
	// The progress cycle is absolute, like the windows' cycles, so it ends
	// Results.Cycles past the rebase; a twin run's collector names that
	// cycle.
	col := telemetry.New(telemetry.Options{})
	if _, err := rv.Run(Options{Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	rebase := col.Snapshot().RebaseCycle
	if rebase == 0 {
		t.Fatal("twin run recorded no rebase")
	}
	if snap.Cycle != rebase+res.Cycles {
		t.Errorf("run phase ended at cycle %d, want %d (rebase %d + Results.Cycles %d)", snap.Cycle, rebase+res.Cycles, rebase, res.Cycles)
	}
}
