// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Simulation runs must be exactly
// reproducible across machines and Go versions, so we avoid math/rand (whose
// algorithms have changed between releases) and implement xorshift64* with
// splitmix64 seeding.
package rng

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

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
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

// Geometric returns a sample from a geometric distribution with mean m
// (values >= 1). Used for run lengths such as basic-block sizes.
func (s *Source) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1 / m
	n := 1
	for !s.Bool(p) && n < 1<<20 {
		n++
	}
	return n
}
