// Package rng provides deterministic, splittable pseudo-random number
// generation for the whole reproduction.
//
// Every generator, simulator and workload in this repository derives its
// randomness from a named stream so that (a) runs are reproducible from a
// single root seed and (b) adding or reordering one component never perturbs
// the random sequence consumed by another. The core generator is SplitMix64
// (Steele, Lea, Flood 2014), which is tiny, fast, passes BigCrush when used
// as described, and — unlike math/rand's global state — trivially
// splittable by hashing a stream name into the seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit PRNG stream. It intentionally mirrors a
// subset of math/rand/v2 so call sites read idiomatically, but it is a
// concrete struct: copying a Source forks the stream, which experiment
// runners use to run independent trials from a common prefix.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Two Sources with the same seed
// produce identical sequences on all platforms.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// NewNamed returns a Source for the stream identified by (seed, name).
// Distinct names yield statistically independent streams; the mapping is
// stable across runs and platforms.
func NewNamed(seed uint64, name string) *Source {
	return NewHashed(seed, NameHash(name))
}

// NameHash is the stream-name hash NewNamed mixes into its seed. A caller
// that opens many streams under one constant name hashes it once and opens
// each through NewHashed.
func NameHash(name string) uint64 { return fnv64a(name) }

// NewHashed returns NewNamed(seed, name) for h == NameHash(name), without
// hashing the name again.
func NewHashed(seed, h uint64) *Source {
	// Mix the name hash into the seed through one SplitMix64 round so that
	// related seeds (seed, seed+1) with the same name still diverge fully.
	return &Source{state: mix64(seed ^ h)}
}

// Split returns a child Source whose stream is independent of the parent's
// subsequent output. The parent advances by one step.
func (s *Source) Split(name string) *Source {
	return &Source{state: mix64(s.Uint64() ^ fnv64a(name))}
}

// Derive returns the child Source that Split(name) would return, without
// advancing the parent. Because the parent's state is untouched, deriving
// "trial/0" … "trial/n" from one Source is order-independent: any subset,
// in any order, from any goroutine, yields the same children. This is the
// primitive the parallel trial engine builds on — each trial's stream
// depends only on (parent state, trial name), never on scheduling.
//
// The parent must not be advanced concurrently with Derive calls; the
// engines that fan trials out hold the parent fixed for the duration.
func (s *Source) Derive(name string) *Source {
	cp := *s
	return cp.Split(name)
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
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

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses the normal approximation (adequate for workload generation).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := mean + math.Sqrt(mean)*s.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	// Knuth's product method.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles xs in place (Fisher–Yates).
func (s *Source) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// SampleInts returns k distinct values drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0. For k much smaller than n it
// uses rejection from a set; otherwise a partial Fisher–Yates.
func (s *Source) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleInts with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.Intn(n)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// WeightedIndex returns an index in [0, len(cum)) selected with probability
// proportional to the increments of the cumulative weight slice cum, which
// must be non-decreasing with a positive final value.
func (s *Source) WeightedIndex(cum []float64) int {
	if len(cum) == 0 {
		panic("rng: WeightedIndex with empty cumulative weights")
	}
	total := cum[len(cum)-1]
	if total <= 0 {
		panic("rng: WeightedIndex with non-positive total weight")
	}
	x := s.Float64() * total
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mix64 is the SplitMix64 finalizer, used to derive seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv64a hashes a string with FNV-1a (inlined to avoid an allocation).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
