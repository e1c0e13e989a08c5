package obs

import (
	"strings"
	"testing"
)

func TestExpositionName(t *testing.T) {
	cases := map[string]string{
		"inject.strikes":      "smtavf_inject_strikes",
		"inject.halfwidth.IQ": "smtavf_inject_halfwidth_IQ",
		"sim.cycle":           "smtavf_sim_cycle",
		"already_clean":       "smtavf_already_clean",
		"weird-name/x":        "smtavf_weird_name_x",
	}
	for in, want := range cases {
		if got := ExpositionName(in); got != want {
			t.Errorf("ExpositionName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteOpenMetricsAndLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("inject.events", "events seen").Add(42)
	r.Gauge("inject.halfwidth.IQ", "CI half-width").Set(0.0125)
	r.Gauge("point.phase", "current phase", Label{"phase", "run"}, Label{"kind", "a\"b"}).Set(1)

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := Lint(text); err != nil {
		t.Fatalf("exposition fails its own linter: %v\n%s", err, text)
	}

	for _, want := range []string{
		"# TYPE smtavf_inject_events counter",
		"smtavf_inject_events 42",
		"# HELP smtavf_inject_events events seen",
		"# TYPE smtavf_inject_halfwidth_IQ gauge",
		"smtavf_inject_halfwidth_IQ 0.0125",
		"# TYPE smtavf_point_phase gauge",
		`smtavf_point_phase{phase="run",kind="a\"b"} 1`,
		"# TYPE smtavf_runtime_goroutines gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Errorf("exposition does not end with # EOF")
	}
}

func TestLintRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"missing EOF":          "# TYPE x counter\nx 1\n",
		"sample without TYPE":  "y 1\n# EOF\n",
		"bad value":            "# TYPE x counter\nx notanumber\n# EOF\n",
		"bad name":             "# TYPE 1bad counter\n# EOF\n",
		"bad type":             "# TYPE x sandwich\n# EOF\n",
		"duplicate TYPE":       "# TYPE x counter\n# TYPE x counter\n# EOF\n",
		"content after EOF":    "# EOF\nx 1\n",
		"bucket without le":    "# TYPE h histogram\nh_bucket{phase=\"x\"} 1\n# EOF\n",
		"malformed label pair": "# TYPE x counter\nx{phase=run} 1\n# EOF\n",
	}
	for name, text := range cases {
		if err := Lint(text); err == nil {
			t.Errorf("%s: linter accepted invalid exposition:\n%s", name, text)
		}
	}
	if err := Lint("# HELP x help text\n# TYPE x counter\nx 1\nx_total 2\n# EOF\n"); err != nil {
		t.Errorf("linter rejected valid exposition: %v", err)
	}
}
