package namegen

import (
	"strings"
	"testing"

	"querycentric/internal/rng"
	"querycentric/internal/vocab"
)

func testGen(t testing.TB) *Generator {
	t.Helper()
	v, err := vocab.New(vocab.Config{Seed: 1, Artists: 200, Titles: 500, Albums: 100, Genres: 30, Extra: 20})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(v, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 1); err == nil {
		t.Error("expected error for nil vocabulary")
	}
}

func TestCanonicalDeterministic(t *testing.T) {
	g := testGen(t)
	for i := 0; i < 100; i++ {
		if g.Canonical(i) != g.Canonical(i) {
			t.Fatalf("Canonical(%d) not deterministic", i)
		}
	}
}

func TestCanonicalMostlyDistinct(t *testing.T) {
	g := testGen(t)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		seen[g.Canonical(i)]++
	}
	// With 200 artists x 500 titles the collision rate should be small.
	if len(seen) < 4500 {
		t.Errorf("only %d distinct names out of 5000", len(seen))
	}
}

func TestCanonicalHasExtension(t *testing.T) {
	g := testGen(t)
	for i := 0; i < 500; i++ {
		name := g.Canonical(i)
		if !strings.Contains(name, ".") {
			t.Fatalf("Canonical(%d) = %q has no extension", i, name)
		}
	}
}

func TestVariantProducesDiversity(t *testing.T) {
	g := testGen(t)
	r := rng.New(2)
	name := "Aaron Neville - I Don't Know Much.mp3"
	variants := map[string]struct{}{}
	for i := 0; i < 200; i++ {
		variants[g.Variant(name, r)] = struct{}{}
	}
	if len(variants) < 10 {
		t.Errorf("only %d distinct variants in 200 draws", len(variants))
	}
	// The unchanged name should still be the most common outcome class:
	// most perturbations are off for any given draw.
	if _, ok := variants[name]; !ok {
		t.Error("identity variant never produced")
	}
}

func TestVariantKeepsSanitizedIdentityMostly(t *testing.T) {
	// Case and punctuation variants must collapse under sanitization
	// (that's what Figure 2 measures). Misspellings and feat-credits do
	// not, so at least the draws that take neither must sanitize back to
	// the canonical name.
	g := testGen(t)
	r := rng.New(3)
	name := "Aaron Neville - I Dont Know Much.mp3"
	sanitize := func(s string) string {
		s = strings.ToLower(s)
		var b strings.Builder
		for _, c := range s {
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
				b.WriteRune(c)
			}
		}
		return b.String()
	}
	want := sanitize(name)
	const draws = 2000
	same, changed := 0, 0
	for i := 0; i < draws; i++ {
		v := g.Variant(name, r)
		if sanitize(v) == want {
			same++
		}
		if v != name {
			changed++
		}
	}
	if floor := (1 - featVariantProb) * (1 - misspellProb) * draws; float64(same) < 0.95*floor {
		t.Errorf("%d of %d variants sanitize to canonical, want about %.0f or more", same, draws, floor)
	}
	if changed < draws/2 {
		t.Errorf("only %d of %d variants differ from the name", changed, draws)
	}
}

func TestMisspellChangesString(t *testing.T) {
	r := rng.New(4)
	s := "linda ronstadt"
	changed := 0
	for i := 0; i < 100; i++ {
		if misspell(s, r) != s {
			changed++
		}
	}
	if changed < 80 {
		t.Errorf("misspell left string unchanged %d/100 times", 100-changed)
	}
}

func TestMisspellShortString(t *testing.T) {
	r := rng.New(5)
	if got := misspell("a", r); got != "a" {
		t.Errorf("misspell of 1-letter string = %q", got)
	}
	if got := misspell("-- 12 --", r); got != "-- 12 --" {
		t.Errorf("misspell of letterless string = %q", got)
	}
}

func TestSplitExt(t *testing.T) {
	tests := []struct{ in, base, ext string }{
		{"a - b.mp3", "a - b", ".mp3"},
		{"noext", "noext", ""},
		{"weird.verylongext", "weird.verylongext", ""},
		{".hidden", ".hidden", ""},
		{"a.b.mp3", "a.b", ".mp3"},
	}
	for _, tc := range tests {
		base, ext := splitExt(tc.in)
		if base != tc.base || ext != tc.ext {
			t.Errorf("splitExt(%q) = (%q, %q), want (%q, %q)", tc.in, base, ext, tc.base, tc.ext)
		}
	}
}

func TestFlipOneCase(t *testing.T) {
	r := rng.New(7)
	s := "abc"
	got := flipOneCase(s, r)
	if strings.ToLower(got) != s {
		t.Errorf("flipOneCase changed letters: %q", got)
	}
	if got == s {
		t.Errorf("flipOneCase changed nothing")
	}
	if flipOneCase("123", r) != "123" {
		t.Error("flipOneCase on letterless string should be identity")
	}
}

func BenchmarkCanonical(b *testing.B) {
	g := testGen(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Canonical(i)
	}
}

func BenchmarkVariant(b *testing.B) {
	g := testGen(b)
	r := rng.New(1)
	name := g.Canonical(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Variant(name, r)
	}
}

func TestCanonicalJunkTokens(t *testing.T) {
	g := testGen(t)
	withJunk := 0
	const n = 2000
	junkLike := func(name string) bool {
		return strings.Contains(name, "[") || strings.Contains(name, "kbps") ||
			strings.Contains(name, "cat") || strings.ContainsAny(name, "0123456789")
	}
	for i := 0; i < n; i++ {
		if junkLike(g.Canonical(i)) {
			withJunk++
		}
	}
	// ~65% of names carry a junk token (plus incidental digits); require a
	// substantial majority to carry some digit/tag material.
	if withJunk < n/2 {
		t.Errorf("only %d/%d names carry junk-like tokens", withJunk, n)
	}
}

func TestJunkTokensMostlyUnique(t *testing.T) {
	// Junk tokens exist to create singleton terms: across many objects,
	// the junk vocabulary must be nearly collision-free.
	g := testGen(t)
	seen := map[string]int{}
	for i := 0; i < 5000; i++ {
		name := g.Canonical(i)
		for _, tok := range strings.Fields(name) {
			if len(tok) >= 8 && strings.Trim(tok, "0123456789abcdef[]()") == "" {
				seen[tok]++
			}
		}
	}
	if len(seen) == 0 {
		t.Skip("no hex-like junk tokens sampled")
	}
	dup := 0
	for _, c := range seen {
		if c > 1 {
			dup++
		}
	}
	if frac := float64(dup) / float64(len(seen)); frac > 0.05 {
		t.Errorf("junk token collision rate %v too high", frac)
	}
}
