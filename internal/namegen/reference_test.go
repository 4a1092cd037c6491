package namegen

import (
	"fmt"
	"strings"
	"testing"

	"querycentric/internal/rng"
	"querycentric/internal/vocab"
)

// canonicalRef is the fmt-based Canonical the byte-buffer one replaced,
// kept as its reference: the same draws in the same order, formatted with
// Sprintf and string concatenation.
func canonicalRef(g *Generator, objID int) string {
	r := rng.NewNamed(g.seed, fmt.Sprintf("namegen/obj/%d", objID))
	artist := g.vocab.Artists[r.Intn(len(g.vocab.Artists))]
	title := g.vocab.Titles[r.Intn(len(g.vocab.Titles))]
	ext := extensions[r.WeightedIndex(g.cum)].ext
	var base string
	switch r.Intn(10) {
	case 0: // track-number prefix
		base = fmt.Sprintf("%02d - %s - %s", 1+r.Intn(15), artist, title)
	case 1: // underscores instead of spaces
		base = strings.ReplaceAll(fmt.Sprintf("%s - %s", artist, title), " ", "_")
	case 2: // title only
		base = title
	default:
		base = fmt.Sprintf("%s - %s", artist, title)
	}
	if r.Bool(0.65) {
		base += " " + junkTokenRef(r)
		if r.Bool(0.25) {
			base += " " + junkTokenRef(r)
		}
	}
	return base + ext
}

// junkTokenRef is the fmt-based junk token appendJunkToken replaced.
func junkTokenRef(r *rng.Source) string {
	const hexdigits = "0123456789abcdef"
	switch r.Intn(4) {
	case 0: // release-group style tag
		b := make([]byte, 6)
		for i := range b {
			b[i] = hexdigits[r.Intn(16)]
		}
		return "[" + string(b) + "]"
	case 1: // rip hash
		b := make([]byte, 8)
		for i := range b {
			b[i] = hexdigits[r.Intn(16)]
		}
		return string(b)
	case 2: // bitrate/encoder tag with a unique suffix
		return fmt.Sprintf("(%dkbps-%c%c)", 64*(1+r.Intn(4)),
			'a'+byte(r.Intn(26)), 'a'+byte(r.Intn(26)))
	default: // catalog number
		return fmt.Sprintf("cat%06d", r.Intn(1000000))
	}
}

// catalogSizedGen is a Generator over the vocabulary catalog sizes for a
// 50,000-object population, the shape Canonical sees in a real build.
func catalogSizedGen(t testing.TB, seed uint64) *Generator {
	t.Helper()
	v, err := vocab.New(vocab.Config{Seed: seed, Artists: 2500, Titles: 16666, Albums: 3333, Genres: 300, Extra: 500})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(v, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCanonicalMatchesReference requires the byte-buffer Canonical to give
// exactly the fmt reference's name for object IDs 0–50,000 at two seeds.
func TestCanonicalMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		g := catalogSizedGen(t, seed)
		for id := 0; id <= 50000; id++ {
			if got, want := g.Canonical(id), canonicalRef(g, id); got != want {
				t.Fatalf("seed %d: Canonical(%d) = %q, reference %q", seed, id, got, want)
			}
		}
	}
}

// TestCanonicalAppendPaddedMatchesSprintf covers appendPadded's whole
// domain at both widths Canonical uses, including values wider than the
// pad.
func TestCanonicalAppendPaddedMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 15, 99, 100, 12345, 99999, 100000, 999999, 1234567} {
		for _, w := range []int{2, 6} {
			if got, want := string(appendPadded([]byte("x"), n, w)), fmt.Sprintf("x%0*d", w, n); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", n, w, got, want)
			}
		}
	}
}

// TestCanonicalCostPin pins Canonical's allocations exactly: the stream
// name and the shared name are built on the stack, so the returned string
// is the call's one allocation. Lowering the pin is free; raising it needs
// a CHANGES.md line naming the cause.
func TestCanonicalCostPin(t *testing.T) {
	g := catalogSizedGen(t, 42)
	id := 0
	got := testing.AllocsPerRun(2000, func() {
		g.Canonical(id)
		id++
	})
	if got != 1 {
		t.Errorf("Canonical: %v allocations per call, pinned at 1", got)
	}
}
