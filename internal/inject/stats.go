package inject

import (
	"fmt"
	"math"
	"strings"

	"smtavf/internal/avf"
	"smtavf/internal/obs"
)

// Detection describes the error protection of a structure, as seen by a
// strike: whether an ACE hit is silent, detected (parity — a Detected
// Unrecoverable Error), or corrected (ECC). core.ProtectionMode is an
// alias of this type.
type Detection int

// Protection levels, weakest first.
const (
	DetectNone    Detection = iota // unprotected: ACE strikes corrupt silently
	DetectOnly                     // parity: ACE strikes are detected, not recovered
	DetectCorrect                  // ECC: ACE strikes are corrected
)

func (d Detection) String() string {
	switch d {
	case DetectOnly:
		return "parity"
	case DetectCorrect:
		return "ecc"
	default:
		return "none"
	}
}

// outcome maps the protection level to the taxonomy class of an ACE hit.
func (d Detection) outcome() Outcome {
	switch d {
	case DetectOnly:
		return DUE
	case DetectCorrect:
		return Corrected
	default:
		return SDC
	}
}

// Outcome classifies one strike — the campaign-level taxonomy of
// Khoshavi et al.'s transient-fault propagation studies: a strike is
// masked (idle or un-ACE state), silently corrupting (SDC), detected but
// unrecoverable (DUE, parity-protected structures), or corrected (ECC).
type Outcome int

// Strike outcome classes.
const (
	Masked      Outcome = iota // struck bit held no ACE state
	SDC                        // silent data corruption (unprotected ACE hit)
	DUE                        // detected unrecoverable error (parity ACE hit)
	Corrected                  // corrected error (ECC ACE hit)
	NumOutcomes = 4
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "SDC"
	case DUE:
		return "DUE"
	case Corrected:
		return "corrected"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Corrupting reports whether the strike hit ACE state — the event whose
// probability is the structure's AVF. Detection refines ACE hits into
// silent vs detected vs corrected but does not change the AVF estimate:
// the tracker's residency accounting is equally protection-blind.
func (o Outcome) Corrupting() bool { return o != Masked }

// Stop is the sequential stopping rule of a strike experiment: keep
// drawing strikes until every structure's Wilson-score confidence
// interval is tighter than HalfWidth, or MaxStrikes strikes per structure
// have been spent — whichever comes first.
type Stop struct {
	// HalfWidth is the target CI half-width on each AVF estimate
	// (absolute AVF units; 0.02 means ±2 AVF points).
	HalfWidth float64 `json:"half_width,omitempty"`
	// MaxStrikes caps the strikes per structure (default 1<<20).
	MaxStrikes int `json:"max_strikes,omitempty"`
	// Confidence is the two-sided CI level (default 0.99).
	Confidence float64 `json:"confidence,omitempty"`
	// Batch is the number of strikes drawn per structure between CI
	// checks (default 512).
	Batch int `json:"batch,omitempty"`
}

// StopWhen builds the standard stopping rule: sample until every
// structure's CI half-width drops below halfWidth, spending at most
// maxStrikes strikes per structure.
func StopWhen(halfWidth float64, maxStrikes int) Stop {
	return Stop{HalfWidth: halfWidth, MaxStrikes: maxStrikes}
}

func (r Stop) withDefaults() Stop {
	if r.MaxStrikes <= 0 {
		r.MaxStrikes = 1 << 20
	}
	if r.Confidence == 0 {
		r.Confidence = 0.99
	}
	if r.Batch <= 0 {
		r.Batch = 512
	}
	return r
}

// StructStats is the strike-outcome record of one structure.
type StructStats struct {
	Struct     avf.Struct
	Protection Detection
	Strikes    uint64
	// Outcomes counts strikes per taxonomy class.
	Outcomes [NumOutcomes]uint64
	// PerThread counts ACE strikes attributed to each owning thread; the
	// entries sum to ACEStrikes.
	PerThread []uint64
	// AVF is the strike-based estimate ACEStrikes/Strikes; Lo and Hi
	// bound it at the experiment's confidence level (Wilson score).
	AVF       float64
	Lo, Hi    float64
	HalfWidth float64
}

// ACEStrikes returns the strikes that hit ACE state (SDC + DUE +
// corrected).
func (st StructStats) ACEStrikes() uint64 {
	return st.Outcomes[SDC] + st.Outcomes[DUE] + st.Outcomes[Corrected]
}

// Stats is the result of a sequential strike experiment (RunStrikes).
type Stats struct {
	Confidence   float64
	Rounds       int
	TotalStrikes uint64
	// StoppedEarly reports that every structure's CI reached the target
	// half-width before the per-structure strike cap was hit.
	StoppedEarly bool
	PerStruct    [avf.NumStructs]StructStats
}

// MaxHalfWidth returns the widest per-structure CI half-width — the
// quantity the stopping rule drives to the target.
func (st *Stats) MaxHalfWidth() float64 {
	w := 0.0
	for s := range st.PerStruct {
		if hw := st.PerStruct[s].HalfWidth; hw > w {
			w = hw
		}
	}
	return w
}

// Table renders the taxonomy and confidence intervals as an aligned text
// table.
func (st *Stats) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strike outcomes at %.0f%% confidence (%d strikes, %d rounds",
		100*st.Confidence, st.TotalStrikes, st.Rounds)
	if st.StoppedEarly {
		b.WriteString(", stopped early")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  %-9s %-7s %9s %9s %9s %9s %9s %19s\n",
		"structure", "prot", "strikes", "masked", "SDC", "DUE", "corr", "AVF [CI]")
	for _, s := range avf.Structs() {
		r := st.PerStruct[s]
		fmt.Fprintf(&b, "  %-9s %-7s %9d %9d %9d %9d %9d  %6.2f%% [%5.2f,%5.2f]\n",
			s, r.Protection, r.Strikes, r.Outcomes[Masked], r.Outcomes[SDC],
			r.Outcomes[DUE], r.Outcomes[Corrected], 100*r.AVF, 100*r.Lo, 100*r.Hi)
	}
	return b.String()
}

// RunStrikes runs the sequential strike experiment over a recorded run of
// 'cycles' cycles: batches of strikes are drawn into every structure
// until the stopping rule is satisfied. Outcomes honour the configured
// protection (SetProtection) and are attributed per thread. Progress —
// strikes drawn, per-structure CI half-width, estimated strikes to stop —
// is published on the registry and progress tracker given to Publish.
func (c *Campaign) RunStrikes(cycles uint64, rule Stop) *Stats {
	rule = rule.withDefaults()
	z := zQuantile(rule.Confidence)
	st := &Stats{Confidence: rule.Confidence}
	var samples [avf.NumStructs]uint64
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		st.PerStruct[s] = StructStats{Struct: s, Protection: c.protection[s]}
		if c.bits[s] > 0 {
			samples[s] = c.Samples(cycles)
		}
	}

	for {
		st.Rounds++
		capped := false
		drawn := 0
		for s := avf.Struct(0); s < avf.NumStructs; s++ {
			r := &st.PerStruct[s]
			if samples[s] == 0 {
				continue // nothing recorded: the CI is vacuously tight
			}
			n := rule.Batch
			if left := rule.MaxStrikes - int(r.Strikes); n > left {
				n = left
			}
			for i := 0; i < n; i++ {
				strike := c.strike(s, samples[s])
				r.Outcomes[strike.Outcome]++
				if strike.Outcome.Corrupting() && strike.TID >= 0 {
					for len(r.PerThread) <= strike.TID {
						r.PerThread = append(r.PerThread, 0)
					}
					r.PerThread[strike.TID]++
				}
			}
			drawn += n
			r.Strikes += uint64(n)
			st.TotalStrikes += uint64(n)
			if int(r.Strikes) >= rule.MaxStrikes {
				capped = true
			}
			r.AVF = float64(r.ACEStrikes()) / float64(r.Strikes)
			r.Lo, r.Hi = Wilson(r.ACEStrikes(), r.Strikes, rule.Confidence)
			r.HalfWidth = (r.Hi - r.Lo) / 2
		}
		converged := rule.HalfWidth > 0 && st.MaxHalfWidth() <= rule.HalfWidth
		c.publishProgress(st, rule, z)
		if converged {
			st.StoppedEarly = !capped
			break
		}
		// Without a CI target the rule is one full pass to MaxStrikes; a
		// round that drew nothing (no structure has samples) ends it too,
		// or it would repeat forever.
		if capped || drawn == 0 {
			break
		}
	}
	return st
}

// etaStrikes estimates how many more strikes the widest structure needs
// before its CI reaches the target half-width — the "ETA to stop" the
// debug endpoint shows.
func etaStrikes(st *Stats, rule Stop, z float64) float64 {
	eta := 0.0
	for s := range st.PerStruct {
		r := &st.PerStruct[s]
		if r.Strikes == 0 || r.HalfWidth <= rule.HalfWidth {
			continue
		}
		p := r.AVF
		need := z * z * p * (1 - p) / (rule.HalfWidth * rule.HalfWidth)
		if min := z * z / (2 * rule.HalfWidth); need < min {
			need = min // width floor of the k=0 / k=n Wilson interval
		}
		if more := need - float64(r.Strikes); more > eta {
			eta = more
		}
	}
	return eta
}

// Publish registers the campaign's live metrics on reg and hands it the
// progress tracker its strike phase advances: the inject.events counter
// ticks with every residency interval during the run, and each round of
// the strike phase (RunStrikes) sets the inject.strikes, inject.rounds,
// inject.eta_strikes and per-structure inject.halfwidth.* gauges and
// advances prog's "strikes" phase. Either may be nil; with no registry
// the handles are no-ops, so intervals book without an atomic add.
func (c *Campaign) Publish(reg *obs.Registry, prog *obs.Progress) {
	if c == nil {
		return
	}
	c.telEvents = reg.Counter("inject.events", "")
	c.telStrikes = reg.Gauge("inject.strikes", "")
	c.telRounds = reg.Gauge("inject.rounds", "")
	c.telETA = reg.Gauge("inject.eta_strikes", "")
	for s := avf.Struct(0); s < avf.NumStructs; s++ {
		c.telHW[s] = reg.Gauge("inject.halfwidth."+s.String(), "")
	}
	c.prog = prog
}

// publishProgress pushes one round of strike-phase progress to the
// registry and the progress tracker (every handle is a nil-receiver
// no-op when detached).
func (c *Campaign) publishProgress(st *Stats, rule Stop, z float64) {
	c.telStrikes.SetUint(st.TotalStrikes)
	c.telRounds.SetUint(uint64(st.Rounds))
	for s := range st.PerStruct {
		c.telHW[s].Set(st.PerStruct[s].HalfWidth)
	}
	eta := etaStrikes(st, rule, z)
	c.telETA.Set(eta)
	// The campaign progress's strike phase counts strikes drawn; the
	// stopping-rule ETA revises the moving total every round.
	c.prog.Phase("strikes", 0)
	c.prog.SetTotal(st.TotalStrikes + uint64(eta))
	c.prog.Observe(st.TotalStrikes, 0)
}

// Wilson returns the two-sided Wilson-score confidence interval of a
// binomial proportion with k successes in n trials at the given
// confidence level (e.g. 0.99). The Wilson interval stays inside [0, 1]
// and behaves sensibly at k = 0 and k = n, where the Wald interval
// collapses to a point — exactly the regime of very low (or very high)
// AVF structures.
func Wilson(k, n uint64, confidence float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	z := zQuantile(confidence)
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// zQuantile returns the two-sided standard-normal quantile for a
// confidence level: z such that P(|N(0,1)| <= z) = confidence
// (0.95 → 1.960, 0.99 → 2.576). It inverts the normal CDF with Acklam's
// rational approximation (|relative error| < 1.15e-9), which keeps the
// package dependency-free.
func zQuantile(confidence float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		return 2.5758293035489004 // fall back to 99%
	}
	return normInv(0.5 + confidence/2)
}

// normInv is the standard normal inverse CDF (Acklam's approximation).
func normInv(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	cc := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((cc[0]*q+cc[1])*q+cc[2])*q+cc[3])*q+cc[4])*q + cc[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
