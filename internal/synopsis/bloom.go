package synopsis

import (
	"fmt"
	"math"
)

// filter is a classic Bloom filter over strings: the compact synopsis a peer
// advertises and its neighbours consult before forwarding a query.
type filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    int    // number of hash functions
}

// newFilter creates a filter sized for expected n elements at the target
// false positive probability fp (0 < fp < 1).
func newFilter(n int, fp float64) (*filter, error) {
	m, k, err := optimal(n, fp)
	if err != nil {
		return nil, err
	}
	return &filter{bits: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

func optimal(n int, fp float64) (m uint64, k int, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("synopsis: bloom filter expected elements must be positive, got %d", n)
	}
	if fp <= 0 || fp >= 1 {
		return 0, 0, fmt.Errorf("synopsis: bloom filter false positive rate must be in (0,1), got %g", fp)
	}
	mf := -float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)
	m = uint64(math.Ceil(mf))
	if m < 64 {
		m = 64
	}
	k = int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return m, k, nil
}

// hash2 computes two independent 64-bit hashes of s; the k indices are
// derived with double hashing (Kirsch–Mitzenmacher).
func hash2(s string) (uint64, uint64) {
	// FNV-1a with two different offset bases gives two independent-enough
	// streams for double hashing.
	const prime = 1099511628211
	h1 := uint64(14695981039346656037)
	h2 := uint64(1099511628211*31 + 7)
	for i := 0; i < len(s); i++ {
		c := uint64(s[i])
		h1 = (h1 ^ c) * prime
		h2 = (h2 ^ (c + 0x9e)) * prime
	}
	// Finalize to decorrelate.
	h1 ^= h1 >> 33
	h1 *= 0xff51afd7ed558ccd
	h1 ^= h1 >> 33
	h2 ^= h2 >> 29
	h2 *= 0xc4ceb9fe1a85ec53
	h2 ^= h2 >> 32
	if h2 == 0 {
		h2 = 0x9e3779b97f4a7c15
	}
	return h1, h2
}

// add inserts s.
func (f *filter) add(s string) {
	h1, h2 := hash2(s)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		f.bits[idx/64] |= 1 << (idx % 64)
	}
}

// contains reports whether s may have been inserted. False positives are
// possible; false negatives are not.
func (f *filter) contains(s string) bool {
	h1, h2 := hash2(s)
	for i := 0; i < f.k; i++ {
		idx := (h1 + uint64(i)*h2) % f.m
		if f.bits[idx/64]&(1<<(idx%64)) == 0 {
			return false
		}
	}
	return true
}
