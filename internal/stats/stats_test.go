package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func setOf(xs ...string) map[string]struct{} { return ToSet(xs) }

func TestJaccard(t *testing.T) {
	tests := []struct {
		name string
		a, b map[string]struct{}
		want float64
	}{
		{"identical", setOf("a", "b"), setOf("a", "b"), 1},
		{"disjoint", setOf("a"), setOf("b"), 0},
		{"half", setOf("a", "b"), setOf("b", "c"), 1.0 / 3},
		{"subset", setOf("a", "b", "c", "d"), setOf("a", "b"), 0.5},
		{"both empty", setOf(), setOf(), 1},
		{"one empty", setOf("a"), setOf(), 0},
	}
	for _, tc := range tests {
		if got := Jaccard(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Jaccard = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestJaccardProperties(t *testing.T) {
	f := func(a, b []string) bool {
		sa, sb := ToSet(a), ToSet(b)
		j := Jaccard(sa, sb)
		if j < 0 || j > 1 {
			return false
		}
		// Symmetry.
		if j != Jaccard(sb, sa) {
			return false
		}
		// Self-similarity is 1.
		return Jaccard(sa, sa) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJaccardSlicesDuplicates(t *testing.T) {
	if got := JaccardSlices([]string{"a", "a", "b"}, []string{"b", "b"}); got != 0.5 {
		t.Errorf("JaccardSlices with duplicates = %v, want 0.5", got)
	}
}

func TestIntersection(t *testing.T) {
	if got := Intersection(setOf("a", "b", "c"), setOf("b", "c", "d")); got != 2 {
		t.Errorf("Intersection = %d, want 2", got)
	}
}

func TestRankFrequency(t *testing.T) {
	got := RankFrequency([]int{3, 1, 4, 1, 5})
	want := []RankFreqPoint{{1, 5}, {2, 4}, {3, 3}, {4, 1}, {5, 1}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRankFrequencyDoesNotMutate(t *testing.T) {
	in := []int{3, 1, 2}
	RankFrequency(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("RankFrequency mutated its input")
	}
}

func TestCCDF(t *testing.T) {
	pts := CCDF([]int{1, 1, 2, 5})
	// values 1,2,5; fractions >=1: 1.0, >=2: 0.5, >=5: 0.25
	want := []CCDFPoint{{1, 1.0}, {2, 0.5}, {5, 0.25}}
	if len(pts) != len(want) {
		t.Fatalf("CCDF len = %d, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i].Value != want[i].Value || math.Abs(pts[i].Frac-want[i].Frac) > 1e-12 {
			t.Errorf("CCDF[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
	if CCDF(nil) != nil {
		t.Error("CCDF(nil) should be nil")
	}
}

func TestCCDFMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		pts := CCDF(counts)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].Frac > pts[i-1].Frac {
				return false
			}
		}
		return len(pts) > 0 && pts[0].Frac == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFractions(t *testing.T) {
	counts := []int{1, 1, 2, 3, 10}
	if got := FractionAtMost(counts, 2); got != 0.6 {
		t.Errorf("FractionAtMost = %v, want 0.6", got)
	}
	if got := FractionAtLeast(counts, 3); got != 0.4 {
		t.Errorf("FractionAtLeast = %v, want 0.4", got)
	}
	if FractionAtMost(nil, 5) != 0 || FractionAtLeast(nil, 5) != 0 {
		t.Error("fractions of empty input should be 0")
	}
}

func TestOnline(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", o.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if math.Abs(o.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", o.Variance(), 32.0/7)
	}
	s := o.Summary()
	if s.N != 8 || s.Mean != o.Mean() || s.Min != 2 || s.Max != 9 {
		t.Errorf("Summary mismatch: %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String empty")
	}
}

func TestOnlineZeroValue(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Variance() != 0 || o.Summary().N != 0 {
		t.Error("zero-value Online not ready to use")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("P50 = %v, want 35", got)
	}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("P0 = %v, want 15", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v, want 50", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v, want 20", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty should be NaN")
	}
}

func TestMeanVariance(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of no values should be NaN")
	}
}

func TestLinearRegression(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	fit, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Errorf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := LinearRegression([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("expected error for degenerate x")
	}
}

func TestLogLogRegression(t *testing.T) {
	// Perfect Zipf with exponent 1.5: y = 1000 * x^-1.5.
	var x, y []float64
	for r := 1; r <= 100; r++ {
		x = append(x, float64(r))
		y = append(y, 1000*math.Pow(float64(r), -1.5))
	}
	fit, err := LogLogRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+1.5) > 1e-9 {
		t.Errorf("slope = %v, want -1.5", fit.Slope)
	}
}

func TestLogLogRegressionSkipsNonPositive(t *testing.T) {
	x := []float64{0, 1, 2, 4}
	y := []float64{5, 1, 2, 4} // after dropping x=0: y = x exactly
	fit, err := LogLogRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-1) > 1e-9 {
		t.Errorf("slope = %v, want 1", fit.Slope)
	}
}

func BenchmarkJaccard(b *testing.B) {
	a := map[string]struct{}{}
	c := map[string]struct{}{}
	for i := 0; i < 1000; i++ {
		a[string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i))] = struct{}{}
		c[string(rune('a'+(i+5)%26))+string(rune('0'+i%10))+string(rune(i))] = struct{}{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(a, c)
	}
}

func TestSpearmanRank(t *testing.T) {
	// Perfect monotone relation (even nonlinear) ⇒ 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 4, 9, 16, 25}
	r, err := SpearmanRank(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("monotone Spearman = %v, want 1", r)
	}
	// Perfect inverse ⇒ -1.
	yInv := []float64{25, 16, 9, 4, 1}
	r, _ = SpearmanRank(x, yInv)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("inverse Spearman = %v, want -1", r)
	}
}

func TestSpearmanRankUncorrelated(t *testing.T) {
	// A fixed permutation with near-zero rank correlation.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{4, 8, 1, 6, 2, 7, 3, 5}
	r, err := SpearmanRank(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.4 {
		t.Errorf("shuffled Spearman = %v, want near 0", r)
	}
}

func TestSpearmanRankTies(t *testing.T) {
	x := []float64{1, 1, 2, 2}
	y := []float64{1, 1, 2, 2}
	r, err := SpearmanRank(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.99 {
		t.Errorf("tied identical Spearman = %v, want 1", r)
	}
}

func TestSpearmanRankErrors(t *testing.T) {
	if _, err := SpearmanRank([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := SpearmanRank([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SpearmanRank([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate constant x accepted")
	}
}
