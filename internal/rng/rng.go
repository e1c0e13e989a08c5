// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Simulation runs must be exactly
// reproducible across machines and Go versions, so we avoid math/rand (whose
// algorithms have changed between releases) and implement xorshift64* with
// splitmix64 seeding.
package rng

import "math"

// Source is a deterministic xorshift64* generator. The zero value is not
// usable; construct with New.
type Source struct {
	state uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby seeds
// (0, 1, 2, ...) yield uncorrelated streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the stream identified by seed.
func (s *Source) Seed(seed uint64) {
	// splitmix64 step to spread low-entropy seeds across the state space.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15 // xorshift state must be nonzero
	}
	s.state = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Uint53 returns the next 53 pseudo-random bits, the draw Float64 scales
// into [0, 1).
func (s *Source) Uint53() uint64 { return s.Uint64() >> 11 }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint53()) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Prob is a probability converted once into an integer threshold on the
// 53-bit draw, so a hot loop compares integers instead of scaling a float
// per draw. Chance(P(p)) decides exactly as Bool(p) and consumes the same
// draws: Float64 is x/2⁵³ for the draw x < 2⁵³, and both the conversion
// and the division are exact, so Float64() < p holds iff x < p·2⁵³ (a
// power-of-two scaling, also exact), iff x < ⌈p·2⁵³⌉. The top bit marks
// the probabilities Bool decides without a draw.
type Prob uint64

const (
	one53  = 1 << 53
	noDraw = Prob(1 << 63)
	never  = noDraw         // p <= 0: false, no draw
	always = noDraw | one53 // p >= 1: true, no draw
)

// P converts probability p into its threshold. NaN compares false after
// a draw, as Bool(NaN) does.
func P(p float64) Prob {
	switch {
	case p <= 0:
		return never
	case p >= 1:
		return always
	case p != p:
		return 0
	}
	return Prob(math.Ceil(p * one53))
}

// Covers reports whether the 53-bit draw x falls below the probability:
// P(p).Covers(Uint53()) decides exactly as Float64() < p, for any p.
func (t Prob) Covers(x uint64) bool { return x < uint64(t&^noDraw) }

// Chance returns true with probability t, exactly as Bool does for the
// p that t was converted from.
func (s *Source) Chance(t Prob) bool {
	if t&noDraw != 0 {
		return t == always
	}
	return s.Uint53() < uint64(t)
}

// GeometricMean converts a mean m into the per-trial threshold of a
// geometric distribution with that mean: success probability 1/m, and a
// first-trial success without a draw for m <= 1.
func GeometricMean(m float64) Prob {
	if m <= 1 {
		return always
	}
	return P(1 / m)
}

// GeometricP returns a geometric sample (values >= 1, capped at 2²⁰): the
// number of Chance(t) trials up to the first success. Used for run
// lengths such as dependence distances.
func (s *Source) GeometricP(t Prob) int {
	n := 1
	for !s.Chance(t) && n < 1<<20 {
		n++
	}
	return n
}
