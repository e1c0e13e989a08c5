package obs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a no-op, so hot paths holding a detached
// handle pay one predictable branch. Updates are atomic: scrapes read
// mid-run.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time metric; nil-safety matches Counter.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetUint stores an integer-valued gauge (cycle counts).
func (g *Gauge) SetUint(v uint64) { g.Set(float64(v)) }

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one metric dimension ({phase="warmup"}).
type Label struct{ Name, Value string }

// metricKind discriminates the typed registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
)

func (k metricKind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// metric is one registered instrument: a family name (possibly dotted —
// the exposition sanitizes), an optional label set, and exactly one of
// the typed values.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	fn      func() float64
}

// Registry is a typed metrics registry: registration takes a short
// mutex, after which updates on the returned handles are plain atomics —
// lock-cheap by construction, cheap enough for campaign-rate events
// (windows, strikes, phases), and deliberately not wired into the
// per-cycle hot loop. Registering the same name+labels again returns the
// existing instrument; registering it as a different type panics (a
// programming error, caught loudly like expvar does).
type Registry struct {
	start time.Time

	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order, for stable exposition
}

// NewRegistry builds a registry pre-populated with the process runtime
// family (runtime.goroutines, runtime.heap_alloc_bytes, runtime.gc_runs,
// runtime.uptime_seconds), sampled lazily at scrape time.
func NewRegistry() *Registry {
	r := &Registry{start: time.Now(), metrics: make(map[string]*metric)}
	r.GaugeFunc("runtime.goroutines", "live goroutines in the process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("runtime.heap_alloc_bytes", "bytes of allocated heap objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	r.GaugeFunc("runtime.gc_runs", "completed GC cycles",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.NumGC)
		})
	r.GaugeFunc("runtime.uptime_seconds", "seconds since the registry was built",
		func() float64 { return time.Since(r.start).Seconds() })
	return r
}

// key is the metric identity: family name plus the sorted label set.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte('{')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// register returns the existing metric under k or installs m.
func (r *Registry) register(k string, m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[k]; ok {
		if prev.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", k, m.kind, prev.kind))
		}
		if prev.help == "" {
			prev.help = m.help
		}
		return prev
	}
	r.metrics[k] = m
	r.order = append(r.order, k)
	return m
}

// Counter registers (or finds) a counter. A nil registry returns a nil
// handle, whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(key(name, labels), &metric{
		name: name, help: help, labels: labels, kind: kindCounter, counter: new(Counter),
	})
	return m.counter
}

// Gauge registers (or finds) a gauge; nil-registry semantics match Counter.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(key(name, labels), &metric{
		name: name, help: help, labels: labels, kind: kindGauge, gauge: new(Gauge),
	})
	return m.gauge
}

// GaugeFunc registers a gauge computed at scrape time (runtime stats).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil || fn == nil {
		return
	}
	r.register(key(name, labels), &metric{
		name: name, help: help, labels: labels, kind: kindGaugeFunc, fn: fn,
	})
}

// Has reports whether a metric with the given name (any label set) is
// registered — the name-parity tests use it.
func (r *Registry) Has(name string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		if m.name == name {
			return true
		}
	}
	return false
}

// snapshot returns the metrics in registration order for exposition.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.order))
	for _, k := range r.order {
		out = append(out, r.metrics[k])
	}
	return out
}
