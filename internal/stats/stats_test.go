package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestEmptySample(t *testing.T) {
	s := NewSample(nil)
	if s.Len() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Median() != 0 || s.Percentile(90) != 0 {
		t.Fatal("empty sample should return zeros everywhere")
	}
}

func TestMeanMinMax(t *testing.T) {
	s := NewSample([]float64{4, 1, 9, 2})
	if got := s.Mean(); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := NewSample(xs)
	xs[0] = 100
	if s.Max() == 100 {
		t.Fatal("NewSample must copy its input")
	}
}

func TestPercentile(t *testing.T) {
	s := NewSample([]float64{10, 20, 30, 40, 50})
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
		{-5, 10}, {101, 50},
		{10, 14}, // interpolation: rank 0.4 → 10 + 0.4*10
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleElement(t *testing.T) {
	s := NewSample([]float64{42})
	for _, p := range []float64{0, 50, 100} {
		if got := s.Percentile(p); got != 42 {
			t.Fatalf("Percentile(%v) = %v", p, got)
		}
	}
}

func TestPercentileBetweenMinMax(t *testing.T) {
	f := func(raw []float64, p uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := NewSample(xs)
		v := s.Percentile(float64(p % 101))
		return v >= s.Min() && v <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareUniform(t *testing.T) {
	if got := ChiSquareUniform([]int{10, 10, 10, 10}); got != 0 {
		t.Fatalf("uniform counts chi2 = %v, want 0", got)
	}
	if got := ChiSquareUniform(nil); got != 0 {
		t.Fatal("nil counts should give 0")
	}
	if got := ChiSquareUniform([]int{0, 0}); got != 0 {
		t.Fatal("all-zero counts should give 0")
	}
	skewed := ChiSquareUniform([]int{40, 0, 0, 0})
	if skewed <= 0 {
		t.Fatalf("skewed chi2 = %v, want > 0", skewed)
	}
}

func TestChiSquareRandomUniformIsSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 20)
	for i := 0; i < 20000; i++ {
		counts[rng.Intn(len(counts))]++
	}
	chi := ChiSquareUniform(counts)
	// 19 degrees of freedom: p=0.001 critical value ≈ 43.8.
	if chi > 43.8 {
		t.Fatalf("chi2 = %v for genuinely uniform data", chi)
	}
}
