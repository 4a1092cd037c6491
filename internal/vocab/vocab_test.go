package vocab

import (
	"strings"
	"testing"
)

// testConfig is a mid-sized vocabulary, roughly what a default-scale catalog
// draws.
func testConfig(seed uint64) Config {
	return Config{Seed: seed, Artists: 4000, Titles: 20000, Albums: 6000, Genres: 300, Extra: 500}
}

func TestWordsDistinct(t *testing.T) {
	ws := Words(1, "test", 5000)
	if len(ws) != 5000 {
		t.Fatalf("got %d words", len(ws))
	}
	seen := map[string]struct{}{}
	for _, w := range ws {
		if w == "" {
			t.Fatal("empty word")
		}
		if _, dup := seen[w]; dup {
			t.Fatalf("duplicate word %q", w)
		}
		seen[w] = struct{}{}
	}
}

func TestWordsDeterministic(t *testing.T) {
	a := Words(7, "x", 100)
	b := Words(7, "x", 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Words not deterministic")
		}
	}
}

func TestWordsStreamsIndependent(t *testing.T) {
	a := Words(7, "x", 50)
	b := Words(7, "y", 50)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams overlap in %d/50 positions", same)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Seed: 1}); err == nil {
		t.Error("expected error for zero sizes")
	}
	if _, err := New(Config{Seed: 1, Artists: 10, Titles: 10, Albums: 10, Genres: -1}); err == nil {
		t.Error("expected error for negative genres")
	}
}

func TestNewSizes(t *testing.T) {
	cfg := Config{Seed: 3, Artists: 500, Titles: 1000, Albums: 300, Genres: 100, Extra: 50}
	v, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Artists) != 500 || len(v.Titles) != 1000 || len(v.Albums) != 300 ||
		len(v.Genres) != 100 || len(v.Extra) != 50 {
		t.Fatalf("sizes: %d/%d/%d/%d/%d", len(v.Artists), len(v.Titles),
			len(v.Albums), len(v.Genres), len(v.Extra))
	}
}

func TestNewAllDistinct(t *testing.T) {
	v, err := New(testConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for name, list := range map[string][]string{
		"artists": v.Artists, "titles": v.Titles, "albums": v.Albums, "genres": v.Genres,
	} {
		seen := map[string]struct{}{}
		for _, s := range list {
			if s == "" {
				t.Fatalf("%s contains empty string", name)
			}
			if _, dup := seen[s]; dup {
				t.Fatalf("%s contains duplicate %q", name, s)
			}
			seen[s] = struct{}{}
		}
	}
}

func TestGenresIncludeStock(t *testing.T) {
	v, err := New(Config{Seed: 5, Artists: 10, Titles: 10, Albums: 10, Genres: 50})
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]struct{}{}
	for _, g := range v.Genres {
		set[g] = struct{}{}
	}
	for _, g := range StockGenres {
		if _, ok := set[g]; !ok {
			t.Errorf("stock genre %q missing", g)
		}
	}
}

func TestGenresFewerThanStock(t *testing.T) {
	// Asking for fewer genres than the stock list still returns the full
	// stock list (callers always get at least the iTunes defaults).
	v, err := New(Config{Seed: 5, Artists: 10, Titles: 10, Albums: 10, Genres: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Genres) < len(StockGenres) {
		t.Errorf("got %d genres, want at least %d", len(v.Genres), len(StockGenres))
	}
}

func TestDeterministicCorpus(t *testing.T) {
	cfg := testConfig(99)
	a, _ := New(cfg)
	b, _ := New(cfg)
	for i := range a.Artists {
		if a.Artists[i] != b.Artists[i] {
			t.Fatal("artists differ across builds")
		}
	}
	for i := range a.Titles {
		if a.Titles[i] != b.Titles[i] {
			t.Fatal("titles differ across builds")
		}
	}
}

func TestArtistShapes(t *testing.T) {
	v, _ := New(Config{Seed: 13, Artists: 1000, Titles: 10, Albums: 10})
	var theCount int
	for _, a := range v.Artists {
		if strings.HasPrefix(a, "The ") {
			theCount++
		}
		if strings.TrimSpace(a) != a {
			t.Errorf("artist %q has surrounding whitespace", a)
		}
	}
	if theCount == 0 {
		t.Error(`no "The ..." artists generated`)
	}
}

func BenchmarkNew(b *testing.B) {
	cfg := testConfig(1)
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
