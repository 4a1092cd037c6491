package rng

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seed diverged at step %d", i)
		}
	}
}

func TestNamedStreamsDiffer(t *testing.T) {
	a := NewNamed(7, "catalog")
	b := NewNamed(7, "queries")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("named streams collided %d/100 times", same)
	}
}

func TestNamedStreamStable(t *testing.T) {
	// Pin the derivation so a refactor can't silently re-randomize every
	// experiment in the repo.
	got := NewNamed(1, "x").Uint64()
	again := NewNamed(1, "x").Uint64()
	if got != again {
		t.Fatalf("NewNamed not stable: %d vs %d", got, again)
	}
}

// TestNewHashedMatchesNewNamed: a stream opened from a precomputed name
// hash is the stream NewNamed opens, for random seeds and names (empty and
// non-ASCII ones included), and NameHash is FNV-1a as hash/fnv computes it.
func TestNewHashedMatchesNewNamed(t *testing.T) {
	r := New(5)
	for i := 0; i < 2000; i++ {
		name := make([]byte, r.Intn(24))
		for j := range name {
			name[j] = byte(r.Uint64())
		}
		seed := r.Uint64()
		h := fnv.New64a()
		h.Write(name)
		if got, want := NameHash(string(name)), h.Sum64(); got != want {
			t.Fatalf("NameHash(%q) = %#x, hash/fnv %#x", name, got, want)
		}
		a, b := NewHashed(seed, NameHash(string(name))), NewNamed(seed, string(name))
		for k := 0; k < 4; k++ {
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("seed %#x name %q draw %d: NewHashed %#x, NewNamed %#x", seed, name, k, x, y)
			}
		}
	}
}

func TestDeriveMatchesSplitWithoutAdvancing(t *testing.T) {
	a := NewNamed(9, "derive")
	b := NewNamed(9, "derive")
	// Derive must hand out exactly Split's child...
	da := a.Derive("trial/3")
	sb := b.Split("trial/3")
	for i := 0; i < 8; i++ {
		if da.Uint64() != sb.Uint64() {
			t.Fatal("Derive child diverged from Split child")
		}
	}
	// ...without moving the parent: a is still at its initial state while
	// b advanced one step, and derivation order must not matter.
	x := a.Derive("trial/7").Uint64()
	_ = a.Derive("trial/8")
	y := NewNamed(9, "derive").Derive("trial/7").Uint64()
	if x != y {
		t.Fatal("Derive advanced the parent or is order-dependent")
	}
	if a.Uint64() != NewNamed(9, "derive").Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(3)
	child := parent.Split("child")
	// The child must not replay the parent's stream.
	p := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		p[parent.Uint64()] = true
	}
	for i := 0; i < 200; i++ {
		if p[child.Uint64()] {
			t.Fatal("child stream replayed a parent value")
		}
	}
}

func TestUint64nRange(t *testing.T) {
	s := New(1)
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(17)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.1*mean+0.1 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	s := New(29)
	for _, tc := range []struct{ n, k int }{{10, 10}, {1000, 5}, {100, 50}, {5, 0}} {
		out := s.SampleInts(tc.n, tc.k)
		if len(out) != tc.k {
			t.Fatalf("SampleInts(%d,%d) returned %d values", tc.n, tc.k, len(out))
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("SampleInts(%d,%d) invalid output %v", tc.n, tc.k, out)
			}
			seen[v] = true
		}
	}
}

func TestWeightedIndex(t *testing.T) {
	s := New(31)
	cum := []float64{1, 1, 4} // weights 1, 0, 3
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[s.WeightedIndex(cum)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket selected %d times", counts[1])
	}
	if r := float64(counts[2]) / float64(counts[0]); r < 2.7 || r > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", r)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	s := New(37)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntnInRange(t *testing.T) {
	s := New(41)
	f := func(n int) bool {
		if n <= 0 {
			n = -n + 1
		}
		v := s.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	s := New(1)
	for name, f := range map[string]func(){
		"Uint64n(0)":        func() { s.Uint64n(0) },
		"Intn(0)":           func() { s.Intn(0) },
		"Intn(-1)":          func() { s.Intn(-1) },
		"SampleInts(1,2)":   func() { s.SampleInts(1, 2) },
		"WeightedIndex nil": func() { s.WeightedIndex(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64n(37572)
	}
}

func TestBool(t *testing.T) {
	s := New(43)
	if s.Bool(0) || s.Bool(-1) {
		t.Error("Bool(<=0) returned true")
	}
	if !s.Bool(1) || !s.Bool(2) {
		t.Error("Bool(>=1) returned false")
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(47)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.03 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}
