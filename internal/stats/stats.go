// Package stats provides the small statistical toolkit used by every
// analysis in the reproduction: set similarity (Jaccard), rank–frequency
// series, online moments, least-squares regression and rank correlation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Jaccard returns the Jaccard index |A∩B| / |A∪B| of two string sets.
// Two empty sets are defined to have similarity 1 (they are identical).
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if _, ok := large[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// RankFreqPoint is one point of a rank–frequency series: the Rank-th most
// frequent item occurs Count times.
type RankFreqPoint struct {
	Rank  int
	Count int
}

// RankFrequency converts a multiset of counts into a rank–frequency series
// sorted by decreasing count (the layout of Figures 1–4 in the paper).
func RankFrequency(counts []int) []RankFreqPoint {
	cp := make([]int, len(counts))
	copy(cp, counts)
	sort.Sort(sort.Reverse(sort.IntSlice(cp)))
	out := make([]RankFreqPoint, len(cp))
	for i, c := range cp {
		out[i] = RankFreqPoint{Rank: i + 1, Count: c}
	}
	return out
}

// FractionAtMost returns the fraction of observations with value <= limit.
func FractionAtMost(counts []int, limit int) float64 {
	if len(counts) == 0 {
		return 0
	}
	n := 0
	for _, c := range counts {
		if c <= limit {
			n++
		}
	}
	return float64(n) / float64(len(counts))
}

// FractionAtLeast returns the fraction of observations with value >= limit.
func FractionAtLeast(counts []int, limit int) float64 {
	if len(counts) == 0 {
		return 0
	}
	n := 0
	for _, c := range counts {
		if c >= limit {
			n++
		}
	}
	return float64(n) / float64(len(counts))
}

// Online accumulates mean and variance incrementally (Welford's method).
// The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Mean returns the running mean (0 for no observations).
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the sample variance (0 for fewer than 2 observations).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Summary is a snapshot of an Online accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summary returns a snapshot of the accumulator.
func (o *Online) Summary() Summary {
	return Summary{N: o.n, Mean: o.Mean(), StdDev: o.StdDev(), Min: o.min, Max: o.max}
}

// String formats a summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinReg holds an ordinary least-squares fit y = Slope*x + Intercept.
type LinReg struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearRegression fits y = a*x + b by ordinary least squares.
func LinearRegression(x, y []float64) (LinReg, error) {
	if len(x) != len(y) {
		return LinReg{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinReg{}, fmt.Errorf("stats: need at least 2 points, have %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, fmt.Errorf("stats: degenerate x values")
	}
	slope := sxy / sxx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	return LinReg{Slope: slope, Intercept: my - slope*mx, R2: r2}, nil
}

// SpearmanRank returns Spearman's rank correlation coefficient between two
// paired samples (ties get average ranks). The paper's companion analysis
// quantified the query/file popularity mismatch as a low rank correlation;
// values near 0 mean the two popularity orders are unrelated.
func SpearmanRank(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 pairs, have %d", len(x))
	}
	rx := ranks(x)
	ry := ranks(y)
	fit, err := LinearRegression(rx, ry)
	if err != nil {
		return 0, err
	}
	// Pearson correlation of the ranks = sign(slope)·sqrt(R²).
	r := math.Sqrt(fit.R2)
	if fit.Slope < 0 {
		r = -r
	}
	return r, nil
}

// ranks assigns average ranks (1-based) to the values of xs.
func ranks(xs []float64) []float64 {
	type iv struct {
		idx int
		v   float64
	}
	order := make([]iv, len(xs))
	for i, v := range xs {
		order[i] = iv{i, v}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].v < order[b].v })
	out := make([]float64, len(xs))
	for i := 0; i < len(order); {
		j := i
		for j+1 < len(order) && order[j+1].v == order[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[order[k].idx] = avg
		}
		i = j + 1
	}
	return out
}
