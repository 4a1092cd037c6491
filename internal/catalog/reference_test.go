package catalog

import (
	"slices"
	"testing"

	"querycentric/internal/rng"
)

// samplePeersRef is the map-deduped sampler peerSampler replaced, kept as
// its reference: a fresh set and output slice per object.
func samplePeersRef(r *rng.Source, cum []float64, k int) []int {
	n := len(cum)
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, k)
	seen := make(map[int]struct{}, k)
	for attempts := 0; len(out) < k && attempts < 50*k+100; attempts++ {
		p := r.WeightedIndex(cum)
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	for len(out) < k {
		p := r.Intn(n)
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	return out
}

// TestPeerSamplerMatchesReference runs one sampler and the reference over
// the same stream for a long sequence of objects — small k, k near n (the
// uniform fallback after rejections pile up), k ≥ n — and requires equal
// peers in equal order every time, including across a stamp wrap.
func TestPeerSamplerMatchesReference(t *testing.T) {
	const n = 300
	cum := make([]float64, n)
	w := rng.New(3)
	total := 0.0
	for i := range cum {
		total += w.Float64() * w.Float64() * 10 // skewed, some near zero
		cum[i] = total
	}
	s := newPeerSampler(cum)
	got, want := rng.New(9), rng.New(9)
	ks := rng.New(11)
	for obj := 0; obj < 4000; obj++ {
		if obj == 2000 {
			s.gen = ^uint32(0) - 1 // the next two objects wrap the stamp
		}
		k := 1 + ks.Intn(8)
		switch obj % 50 {
		case 0:
			k = n - 1 - ks.Intn(5)
		case 1:
			k = n + ks.Intn(3)
		}
		if g, r := s.sample(got, k), samplePeersRef(want, cum, k); !slices.Equal(g, r) {
			t.Fatalf("object %d, k=%d: sampler %v, reference %v", obj, k, g, r)
		}
	}
}
