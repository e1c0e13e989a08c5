package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(1.5)
	g.SetUint(7)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %v", g.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram observed something")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatalf("nil registry handed out live instruments")
	}
	if err := r.WriteOpenMetrics(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry exposition: %v", err)
	}
}

func TestRegistryReuseAndIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("inject.events", "strike-grid events")
	b := r.Counter("inject.events", "")
	if a != b {
		t.Fatalf("same name returned distinct counters")
	}
	a.Add(5)
	if b.Value() != 5 {
		t.Fatalf("aliased counter diverged: %d", b.Value())
	}

	l1 := r.Gauge("point.phase", "", Label{"phase", "warmup"})
	l2 := r.Gauge("point.phase", "", Label{"phase", "run"})
	l1again := r.Gauge("point.phase", "", Label{"phase", "warmup"})
	if l1 == l2 {
		t.Fatalf("distinct label sets shared a gauge")
	}
	if l1 != l1again {
		t.Fatalf("same label set returned distinct gauges")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	cum := h.cumulative()
	want := []uint64{1, 3, 4, 5}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], want[i], cum)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("concurrent.events", "")
			h := r.Histogram("concurrent.dur", "", []float64{0.001, 0.1, 1})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("concurrent.events", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("concurrent.dur", "", []float64{0.001, 0.1, 1}).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestRuntimeFamilyRegistered(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{
		"runtime.goroutines", "runtime.heap_alloc_bytes", "runtime.gc_runs", "runtime.uptime_seconds",
	} {
		if !r.Has(name) {
			t.Fatalf("runtime metric %q not pre-registered", name)
		}
	}
}
