package avf

// Sink observes positioned residency intervals as they are classified.
// The accumulators in Tracker only need (bits × cycles) totals, but
// consumers like statistical fault injection (internal/inject) need to
// know *when* state was resident; call sites that know interval positions
// use AddInterval, which both accumulates and forwards to the sink.
type Sink interface {
	// Interval reports that 'bits' bits of structure s, owned by thread
	// tid, were resident from cycle start (inclusive) to end (exclusive),
	// and whether a particle strike in that window would have corrupted
	// the program (ace).
	Interval(s Struct, tid int, bits, start, end uint64, ace bool)
}

// AddSink attaches a Sink receiving every positioned interval (and, if it
// implements RebaseObserver, every rebase), after any sinks already
// attached; nil attaches nothing. Intervals recorded through the
// position-less Add are not forwarded (no call sites mix the two for the
// same structure). Fault injection and the CPI-stack observer both attach
// here, so they observe the identical interval stream.
func (t *Tracker) AddSink(s Sink) {
	if s != nil {
		t.sinks = append(t.sinks, s)
	}
}

// AddInterval records a residency interval [start, end) and forwards it to
// every attached sink. Intervals are clipped against the rebase point (see
// Rebase), so warmup-era residency never pollutes measured statistics.
func (t *Tracker) AddInterval(s Struct, tid int, bits, start, end uint64, ace bool) {
	if start < t.rebase {
		start = t.rebase
	}
	if end <= start {
		return
	}
	t.Add(s, tid, bits, end-start, ace)
	if t.muted {
		return
	}
	for _, k := range t.sinks {
		k.Interval(s, tid, bits, start, end, ace)
	}
}

// MuteSinks stops forwarding intervals to the sinks until the next Rebase,
// which unmutes them; the accumulators still count every interval. The
// simulator mutes them for a warmup: a sink sees only the measurement
// window (RebaseObserver), so what it would hear before the rebase is
// work it discards.
func (t *Tracker) MuteSinks() { t.muted = true }

// RebaseObserver is the optional half of the sink contract: a Sink that
// also implements it is told when the tracker rebases, so interval
// consumers (fault-injection campaigns, the CPI-stack observer) start
// their measurement window there. Sinks that never see a rebase (no
// warmup configured) need not implement it.
//
// Sinks and retire observers see only the measurement window. Rebase
// discards whatever a sink heard before it, so the simulator mutes the
// sinks (MuteSinks) and calls no retire observer until the warmup rebase:
// a sink hears nothing before its Rebase, and its state after it is what
// it would be had it heard the warmup and discarded it.
type RebaseObserver interface {
	// Rebase reports that accumulation restarted at cycle: intervals
	// observed before it belong to warmup and must not contribute to
	// measured estimates.
	Rebase(cycle uint64)
}

// Rebase zeroes the accumulators, unmutes the sinks and clips all future
// intervals at cycle: the simulator calls it at the end of a warmup
// period, so that AVFs cover only the measurement window. Callers must
// thereafter compute AVFs over cycles-since-rebase. Every attached Sink
// that implements RebaseObserver is notified after the accumulators reset.
func (t *Tracker) Rebase(cycle uint64) {
	t.drain() // pre-rebase spans must be zeroed with everything else
	t.rebase = cycle
	t.muted = false
	for s := 0; s < NumStructs; s++ {
		for tid := range t.ace[s] {
			t.ace[s][tid] = 0
			t.unace[s][tid] = 0
		}
	}
	for _, k := range t.sinks {
		if o, ok := k.(RebaseObserver); ok {
			o.Rebase(cycle)
		}
	}
}
