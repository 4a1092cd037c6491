package gnet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"querycentric/internal/dict"
	"querycentric/internal/rng"
)

// buildSortedRef is the IndexBuilder.Build the radix pass replaced, kept
// as its reference: the same keys ordered by one comparison sort over the
// whole key.
func buildSortedRef(ids []dict.TermID, off []uint32, remap []dict.TermID) IndexState {
	var keys []uint64
	for f := 0; f+1 < len(off); f++ {
		for _, id := range ids[off[f]:off[f+1]] {
			keys = append(keys, uint64(remap[id])<<32|uint64(f))
		}
	}
	slices.Sort(keys)
	return new(IndexBuilder).encode(keys)
}

// randomLibrary draws a library of about nKeys (term, file) incidences over
// vocab provisional IDs, each file's IDs distinct, and a remap onto
// distinct final IDs in [lo, lo+span).
func randomLibrary(r *rng.Source, nKeys, vocab int, lo, span uint64) (ids []dict.TermID, off []uint32, remap []dict.TermID) {
	remap = make([]dict.TermID, vocab)
	used := map[dict.TermID]bool{}
	for i := range remap {
		for {
			t := dict.TermID(lo + r.Uint64n(span))
			if !used[t] {
				used[t] = true
				remap[i] = t
				break
			}
		}
	}
	off = []uint32{0}
	for len(ids) < nKeys {
		start := len(ids)
		for n := min(1+r.Intn(8), nKeys-len(ids)); n > 0; n-- {
			if id := dict.TermID(r.Intn(vocab)); !slices.Contains(ids[start:], id) {
				ids = append(ids, id)
			}
		}
		off = append(off, uint32(len(ids)))
	}
	return ids, off, remap
}

// TestIndexBuilderMatchesSortedReference holds the radix Build to the
// comparison-sort reference byte for byte, through one reused builder: on
// libraries just below, at and far above the small-input cutoff, with
// final term IDs needing one, two and three radix digits (past 2^22, up
// to the largest TermID), and with every term sharing its high digits (a
// skipped pass).
func TestIndexBuilderMatchesSortedReference(t *testing.T) {
	r := rng.New(17)
	var b IndexBuilder
	ranges := []struct {
		name     string
		lo, span uint64
	}{
		{"one-digit", 0, 1 << radixBits},
		{"two-digit", 0, 1 << (2 * radixBits)},
		{"three-digit", 1 << (2 * radixBits), 1<<32 - 1<<(2*radixBits)},
		{"top-of-range", 1<<32 - 4096, 4096},
		{"shared-high-digits", 5 << (2 * radixBits), 1 << radixBits},
	}
	for _, rg := range ranges {
		for _, n := range []int{0, 1, radixMinKeys - 1, radixMinKeys, radixMinKeys + 1, 3000, 20000} {
			vocab := max(16, min(int(rg.span), n))
			ids, off, remap := randomLibrary(r, n, vocab, rg.lo, rg.span)
			got, want := b.Build(ids, off, remap), buildSortedRef(ids, off, remap)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d keys: radix index %+v, reference %+v", rg.name, n, got, want)
			}
		}
	}
}

// TestIndexBuilderCostPin pins a warmed builder's allocations exactly: a
// Build allocates only the three exact-size arrays the index keeps (arena,
// skip array, block offsets), on both sides of the radix cutoff. Lowering
// the pin is free; raising it needs a CHANGES.md line naming the cause.
func TestIndexBuilderCostPin(t *testing.T) {
	r := rng.New(5)
	for _, n := range []int{radixMinKeys / 2, 4 * radixMinKeys} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ids, off, remap := randomLibrary(r, n, 4*n, 0, 1<<20)
			var b IndexBuilder
			b.Build(ids, off, remap)
			if got := testing.AllocsPerRun(50, func() { b.Build(ids, off, remap) }); got != 3 {
				t.Errorf("warmed Build of %d keys: %v allocations, pinned at 3", n, got)
			}
		})
	}
}
