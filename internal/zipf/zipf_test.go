package zipf

import (
	"math"
	"testing"
	"testing/quick"

	"querycentric/internal/rng"
)

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
		q float64
	}{{0, 1, 0}, {-3, 1, 0}, {10, 0, 0}, {10, -1, 0}, {10, 1, -0.5}} {
		if _, err := NewMandelbrot(tc.n, tc.s, tc.q); err == nil {
			t.Errorf("NewMandelbrot(%d, %v, %v): expected error", tc.n, tc.s, tc.q)
		}
	}
	if _, err := New(10, 1); err != nil {
		t.Fatalf("New(10, 1): %v", err)
	}
}

func TestProbSumsToOne(t *testing.T) {
	d, err := New(1000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for k := 1; k <= 1000; k++ {
		sum += d.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if d.Prob(0) != 0 || d.Prob(1001) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestProbMonotone(t *testing.T) {
	d, _ := New(500, 1.2)
	for k := 2; k <= 500; k++ {
		if d.Prob(k) > d.Prob(k-1)+1e-15 {
			t.Fatalf("Prob not monotone at rank %d", k)
		}
	}
}

func TestSampleRange(t *testing.T) {
	d, _ := New(37, 1.0)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		k := d.Sample(r)
		if k < 1 || k > 37 {
			t.Fatalf("sample %d out of range", k)
		}
	}
}

func TestSampleMatchesProb(t *testing.T) {
	d, _ := New(10, 1.0)
	r := rng.New(2)
	const n = 200000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[d.Sample(r)-1]++
	}
	for k := 1; k <= 10; k++ {
		want := float64(n) * d.Prob(k)
		got := float64(counts[k-1])
		if math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d: got %v draws, want ~%v", k, got, want)
		}
	}
}

func TestMandelbrotFlattensHead(t *testing.T) {
	plain, _ := New(100, 1.0)
	shifted, _ := NewMandelbrot(100, 1.0, 10)
	// Shifting flattens the head: rank-1 probability must drop.
	if shifted.Prob(1) >= plain.Prob(1) {
		t.Errorf("Mandelbrot shift did not flatten head: %v >= %v",
			shifted.Prob(1), plain.Prob(1))
	}
}

func TestFitRankFrequencyRecovers(t *testing.T) {
	for _, s := range []float64{0.8, 1.0, 1.4} {
		d, _ := New(2000, s)
		counts := make([]int, 2000)
		for k := range counts {
			counts[k] = int(2000000 * d.Prob(k+1))
		}
		fit, err := FitRankFrequency(counts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.S-s) > 0.15 {
			t.Errorf("s=%v: fitted %v", s, fit.S)
		}
		if fit.R2 < 0.95 {
			t.Errorf("s=%v: R2 = %v too low", s, fit.R2)
		}
	}
}

func TestFitRankFrequencyErrors(t *testing.T) {
	if _, err := FitRankFrequency([]int{5}); err == nil {
		t.Error("expected error for single count")
	}
	if _, err := FitRankFrequency([]int{0, 0}); err == nil {
		t.Error("expected error for all-zero counts")
	}
}

func BenchmarkSample(b *testing.B) {
	d, _ := New(100000, 1.0)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(r)
	}
}

func TestQuantile(t *testing.T) {
	d, _ := New(100, 1.0)
	if d.Quantile(0) != 1 || d.Quantile(-1) != 1 {
		t.Error("Quantile at u<=0 should be rank 1")
	}
	if d.Quantile(1) != 100 || d.Quantile(2) != 100 {
		t.Error("Quantile at u>=1 should be rank n")
	}
	// Monotone in u.
	prev := 0
	for u := 0.0; u <= 1.0; u += 0.01 {
		k := d.Quantile(u)
		if k < prev {
			t.Fatalf("Quantile not monotone at u=%v", u)
		}
		prev = k
	}
}

func TestQuantileMatchesSample(t *testing.T) {
	// Sample is inverse-transform over the same table, so the quantile of
	// a uniform draw must reproduce the sampling distribution: check the
	// median rank region.
	d, _ := New(1000, 1.0)
	half := d.Quantile(0.5)
	// For Zipf s=1 over 1000 ranks, half the mass sits in the first ~30
	// ranks (H(31)≈H(1000)/2).
	if half < 5 || half > 100 {
		t.Errorf("median rank = %d, want small head rank", half)
	}
}

func TestQuantileProperty(t *testing.T) {
	d, _ := New(50, 1.2)
	f := func(raw uint16) bool {
		u := float64(raw) / 65535
		k := d.Quantile(u)
		return k >= 1 && k <= 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
