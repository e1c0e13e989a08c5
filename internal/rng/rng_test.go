package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSeedReset(t *testing.T) {
	s := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after reseed, step %d: %d != %d", i, got, first[i])
		}
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for _, n := range []int{1, 2, 7, 100} {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(9)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	sum := 0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.GeometricP(GeometricMean(8))
	}
	mean := float64(sum) / n
	if math.Abs(mean-8) > 0.3 {
		t.Fatalf("Geometric(8) mean %v, want ~8", mean)
	}
}

func TestGeometricMinimum(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if v := s.GeometricP(GeometricMean(0.5)); v != 1 {
			t.Fatalf("Geometric(m<=1) = %d, want 1", v)
		}
		if v := s.GeometricP(GeometricMean(4)); v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
	}
}

// geometricFloat is the float form of GeometricP(GeometricMean(m)), the
// loop the generator used to run: one Bool(1/m) trial per step.
func geometricFloat(s *Source, m float64) int {
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

// FuzzChance checks the integer thresholds against the float comparisons
// they stand in for, for any seed and any p: Chance(P(p)) answers as
// Bool(p) on the same draws and leaves the stream where Bool leaves it;
// P(p).Covers(x) is float64(x)/2⁵³ < p for a 53-bit x, probed at the
// input and around the threshold; and GeometricP(GeometricMean(m)) draws
// as the float loop does, for m = p and m = 1/p.
func FuzzChance(f *testing.F) {
	for _, p := range []float64{
		0, math.Copysign(0, -1), -0.25, -1, math.Inf(-1), math.NaN(), math.Inf(1),
		math.SmallestNonzeroFloat64, 0x1p-53, 1.0 / 150, 0.05, 0.3, 0.5, 0.7,
		1 - 0x1p-53, 1, 1 + 0x1p-52, 8,
	} {
		f.Add(uint64(1), p, uint64(1)<<52)
	}
	f.Add(uint64(0), 0.9, uint64(0))
	f.Add(^uint64(0), 0.12, ^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, p float64, x uint64) {
		a, b := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			if got, want := b.Chance(P(p)), a.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Chance %v, Bool %v", p, i, got, want)
			}
		}
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("p=%v: Chance and Bool left the stream at different draws", p)
		}

		covers := func(x uint64) {
			if got, want := P(p).Covers(x), float64(x)/(1<<53) < p; got != want {
				t.Fatalf("p=%v x=%d: Covers %v, float comparison %v", p, x, got, want)
			}
		}
		covers(x & (1<<53 - 1))
		th := uint64(P(p) &^ noDraw)
		for _, y := range []uint64{th - 1, th, th + 1} {
			if y < 1<<53 {
				covers(y)
			}
		}
		if got, want := P(p).Covers(b.Uint53()), a.Float64() < p; got != want {
			t.Fatalf("p=%v: Covers(Uint53()) %v, Float64() < p %v", p, got, want)
		}

		for _, m := range []float64{p, 1 / p} {
			if got, want := b.GeometricP(GeometricMean(m)), geometricFloat(a, m); got != want {
				t.Fatalf("m=%v: GeometricP %d, float loop %d", m, got, want)
			}
			if got, want := b.Uint64(), a.Uint64(); got != want {
				t.Fatalf("m=%v: GeometricP and the float loop left the stream at different draws", m)
			}
		}
	})
}
