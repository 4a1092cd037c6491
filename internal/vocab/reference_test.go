package vocab

import (
	"strings"
	"testing"
)

// titleRef is the Split/ToUpper/Join title the one-pass copy replaced,
// kept as its reference.
func titleRef(s string) string {
	parts := strings.Split(s, " ")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, " ")
}

// TestTitleMatchesReference holds title to titleRef on every input New
// passes it, at two seeds: each word of the artist and genre pools (New
// title-cases single pool words) and each composed title and album phrase.
// A phrase is all lower-case ASCII, so it is the lower-cased entry New kept;
// that title gives that entry back proves the recovered phrase is the
// input (a duplicate's digit suffix rides along unchanged).
func TestTitleMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		cfg := testConfig(seed)
		v, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(in string) {
			t.Helper()
			if got, want := title(in), titleRef(in); got != want {
				t.Fatalf("seed %d: title(%q) = %q, reference %q", seed, in, got, want)
			}
		}
		for _, w := range Words(seed, "artist-words", max(64, cfg.Artists/2)) {
			check(w)
		}
		for _, w := range Words(seed, "genre-words", max(16, cfg.Genres/4)) {
			check(w)
		}
		for _, kept := range append(append([]string(nil), v.Titles...), v.Albums...) {
			in := strings.ToLower(kept)
			check(in)
			if got := title(in); got != kept {
				t.Fatalf("seed %d: title(%q) = %q, New kept %q", seed, in, got, kept)
			}
		}
	}
	// Edge shapes the reference defines: empty words, leading and doubled
	// spaces, digits and capitals at a word start, punctuation inside one
	// (only a space starts a word).
	for _, in := range []string{"", " ", "a", "a  b", " lead", "trail ", "9lives x", "Already Up", "the of a", "rock-n-roll", "a.b c"} {
		if got, want := title(in), titleRef(in); got != want {
			t.Errorf("title(%q) = %q, reference %q", in, got, want)
		}
	}
}
