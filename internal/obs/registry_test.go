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
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil {
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

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("concurrent.events", "")
			g := r.Gauge("concurrent.last", "")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.SetUint(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("concurrent.events", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("concurrent.last", "").Value(); got != 999 {
		t.Fatalf("gauge = %v, want 999", got)
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
