// Package zipf implements bounded Zipf and Zipf–Mandelbrot distributions and
// an estimator for their exponent.
//
// The paper's central empirical observation is that object names, object
// annotation terms and query terms all follow Zipf-like long-tail
// distributions. This package provides (a) samplers used by the synthetic
// trace generators and (b) fitting used by the analyses to verify that the
// generated and measured distributions really are Zipf-like.
package zipf

import (
	"fmt"
	"math"
	"sort"

	"querycentric/internal/rng"
)

// Dist is a bounded Zipf–Mandelbrot distribution over ranks 1..N:
//
//	P(rank = k) ∝ 1 / (k + q)^s
//
// with q = 0 giving the classical Zipf distribution. Sampling is by inverse
// transform over a precomputed cumulative table (O(log N) per draw).
type Dist struct {
	n   int
	s   float64
	q   float64
	cum []float64 // cum[i] = P(rank <= i+1), cum[n-1] == 1
}

// New returns a Zipf distribution over ranks 1..n with exponent s > 0.
func New(n int, s float64) (*Dist, error) {
	return NewMandelbrot(n, s, 0)
}

// NewMandelbrot returns a Zipf–Mandelbrot distribution over ranks 1..n with
// exponent s > 0 and shift q >= 0.
func NewMandelbrot(n int, s, q float64) (*Dist, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf: n must be positive, got %d", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("zipf: exponent must be positive, got %g", s)
	}
	if q < 0 {
		return nil, fmt.Errorf("zipf: shift must be non-negative, got %g", q)
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += math.Pow(float64(k)+q, -s)
		cum[k-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // exact, despite rounding
	return &Dist{n: n, s: s, q: q, cum: cum}, nil
}

// Prob returns P(rank = k) for k in 1..N.
func (d *Dist) Prob(k int) float64 {
	if k < 1 || k > d.n {
		return 0
	}
	if k == 1 {
		return d.cum[0]
	}
	return d.cum[k-1] - d.cum[k-2]
}

// Sample draws a rank in 1..N.
func (d *Dist) Sample(r *rng.Source) int {
	x := r.Float64()
	i := sort.SearchFloat64s(d.cum, x)
	if i >= d.n {
		i = d.n - 1
	}
	return i + 1
}

// Quantile returns the smallest rank k with P(rank <= k) >= u, for
// u in [0, 1]. It is the inverse transform Sample uses, exposed so callers
// can couple this distribution's rank to another variable's rank.
func (d *Dist) Quantile(u float64) int {
	if u <= 0 {
		return 1
	}
	if u >= 1 {
		return d.n
	}
	i := sort.SearchFloat64s(d.cum, u)
	if i >= d.n {
		i = d.n - 1
	}
	return i + 1
}

// SampleMany draws k ranks.
func (d *Dist) SampleMany(r *rng.Source, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// ExpectedCounts returns the expected number of occurrences of each rank in
// total draws: counts[k-1] = total * P(rank = k).
func (d *Dist) ExpectedCounts(total int) []float64 {
	out := make([]float64, d.n)
	for k := 1; k <= d.n; k++ {
		out[k-1] = float64(total) * d.Prob(k)
	}
	return out
}

// Counts deterministically apportions total occurrences to ranks 1..n in
// Zipf proportion with every rank receiving at least min. It is used to
// build replica-count profiles (e.g. "12.1M objects over 8.1M unique names")
// without per-object sampling noise. Apportioning uses largest-remainder
// rounding so the counts sum exactly to max(total, n*min).
func (d *Dist) Counts(total, min int) []int {
	if min < 0 {
		min = 0
	}
	out := make([]int, d.n)
	base := d.n * min
	rem := total - base
	if rem < 0 {
		rem = 0
	}
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, d.n)
	assigned := 0
	for k := 1; k <= d.n; k++ {
		exact := float64(rem) * d.Prob(k)
		whole := int(exact)
		out[k-1] = min + whole
		assigned += whole
		fracs[k-1] = frac{idx: k - 1, f: exact - float64(whole)}
	}
	// Distribute the remainder to the largest fractional parts; ties break
	// toward lower ranks for determinism.
	left := rem - assigned
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].idx < fracs[j].idx
	})
	for i := 0; i < left && i < len(fracs); i++ {
		out[fracs[i].idx]++
	}
	return out
}

// Fit holds an estimated Zipf exponent.
type Fit struct {
	S  float64 // estimated exponent
	R2 float64 // goodness of the log–log linear fit
}

// FitRankFrequency estimates the Zipf exponent from a rank–frequency series
// (counts sorted descending is not required; the function sorts). It fits
// log(count) = -s*log(rank) + b by least squares over ranks with positive
// count. This is the estimator used throughout the paper's figures.
func FitRankFrequency(counts []int) (Fit, error) {
	cp := make([]int, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			cp = append(cp, c)
		}
	}
	if len(cp) < 2 {
		return Fit{}, fmt.Errorf("zipf: need at least 2 positive counts, have %d", len(cp))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cp)))
	var sxx, sxy, syy, sx, sy float64
	n := float64(len(cp))
	for i, c := range cp {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(c))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := sxx - sx*sx/n
	if den == 0 {
		return Fit{}, fmt.Errorf("zipf: degenerate rank values")
	}
	slope := (sxy - sx*sy/n) / den
	r2 := 0.0
	if vy := syy - sy*sy/n; vy > 0 {
		r2 = (sxy - sx*sy/n) * (sxy - sx*sy/n) / (den * vy)
	}
	return Fit{S: -slope, R2: r2}, nil
}
