package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentTypeOpenMetrics is the media type /debug/metrics serves; the
// text is also valid Prometheus exposition format, so any scraper works.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// MetricPrefix namespaces every exposed family: the registry's internal
// dotted names (inject.strikes) become smtavf_inject_strikes on the wire.
const MetricPrefix = "smtavf_"

// ExpositionName maps a registry name onto its OpenMetrics family name:
// the smtavf_ prefix plus the name with every character outside
// [a-zA-Z0-9_:] replaced by '_'. Dotted legacy names (inject.halfwidth.IQ)
// stay one family each — the /telemetry snapshot's dotted names keep
// their identity flat rather than re-encoding suffixes as labels.
func ExpositionName(name string) string {
	var b strings.Builder
	b.Grow(len(MetricPrefix) + len(name))
	b.WriteString(MetricPrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelString renders a label set as {a="x",b="y"} ("" when empty).
func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, escapeLabel(l.Value))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics writes the registry's current state in OpenMetrics
// text format: one # HELP/# TYPE header per family, every labeled series
// under it, histograms expanded to _bucket/_sum/_count, terminated by
// # EOF. Families appear in registration order; series within a family
// in registration order too, so successive scrapes of the same process
// are line-stable.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "# EOF\n")
		return err
	}
	metrics := r.snapshot()

	// Group series into families by exposition name, preserving first-seen
	// order (a family's TYPE/HELP must precede all of its samples).
	type family struct {
		name   string
		help   string
		kind   metricKind
		series []*metric
	}
	var order []string
	fams := map[string]*family{}
	for _, m := range metrics {
		en := ExpositionName(m.name)
		f, ok := fams[en]
		if !ok {
			f = &family{name: en, help: m.help, kind: m.kind}
			fams[en] = f
			order = append(order, en)
		}
		if f.help == "" {
			f.help = m.help
		}
		f.series = append(f.series, m)
	}

	var b strings.Builder
	for _, en := range order {
		f := fams[en]
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		typ := "gauge"
		switch f.kind {
		case kindCounter:
			typ = "counter"
		case kindHistogram:
			typ = "histogram"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, typ)
		for _, m := range f.series {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(m.labels), m.counter.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(m.labels), formatValue(m.gauge.Value()))
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(m.labels), formatValue(m.fn()))
			case kindHistogram:
				cum := m.hist.cumulative()
				for i, bound := range m.hist.bounds {
					le := Label{Name: "le", Value: formatValue(bound)}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(m.labels, le), cum[i])
				}
				inf := Label{Name: "le", Value: "+Inf"}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(m.labels, inf), cum[len(cum)-1])
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(m.labels), formatValue(m.hist.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(m.labels), m.hist.Count())
			}
		}
	}
	b.WriteString("# EOF\n")
	_, err := io.WriteString(w, b.String())
	return err
}
