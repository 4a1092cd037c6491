// Package vocab builds the deterministic synthetic vocabularies from which
// object annotations and query strings are composed.
//
// The paper analyzed real file names ("Aaron Neville and Linda Ronstad - I
// Don t Know Much.mp3") and iTunes annotations (artist, album, genre). We
// cannot ship those traces, so this package synthesizes a pronounceable,
// collision-free vocabulary of words, artist names, song titles, album
// names and genres. Every generator is a pure function of (seed, index), so
// the same configuration always yields the same corpus.
package vocab

import (
	"fmt"
	"strings"

	"querycentric/internal/rng"
)

// Syllable inventory used to compose pronounceable words. Chosen so that
// onset×nucleus×coda × length-2..4 gives far more combinations than any
// experiment needs, keeping accidental collisions negligible.
var (
	onsets = []string{"b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr",
		"h", "j", "k", "kl", "l", "m", "n", "p", "pr", "qu", "r", "s", "sh",
		"sl", "st", "t", "th", "tr", "v", "w", "z"}
	nuclei = []string{"a", "e", "i", "o", "u", "ai", "ea", "ee", "io", "oo", "ou"}
	codas  = []string{"", "", "", "l", "m", "n", "r", "s", "t", "nd", "st", "ck", "ng"}
)

// word deterministically derives a pronounceable word from a 64-bit code.
func word(code uint64) string {
	r := rng.New(code*0x9e3779b97f4a7c15 + 1)
	n := 2 + r.Intn(3) // 2-4 syllables
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(onsets[r.Intn(len(onsets))])
		b.WriteString(nuclei[r.Intn(len(nuclei))])
		if i == n-1 || r.Bool(0.3) {
			b.WriteString(codas[r.Intn(len(codas))])
		}
	}
	return b.String()
}

// Words returns n distinct pronounceable lowercase words for the stream
// identified by (seed, name). Distinctness is guaranteed by suffixing the
// rare collision with a deterministic discriminator.
func Words(seed uint64, name string, n int) []string {
	r := rng.NewNamed(seed, "vocab/"+name)
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for len(out) < n {
		w := word(r.Uint64())
		if _, dup := seen[w]; dup {
			w = fmt.Sprintf("%s%d", w, len(out))
			if _, dup2 := seen[w]; dup2 {
				continue
			}
		}
		seen[w] = struct{}{}
		out = append(out, w)
	}
	return out
}

// StockGenres is the genre list iTunes shipped with (the paper notes 24
// stock genres that users were free to extend).
var StockGenres = []string{
	"Alternative", "Blues", "Books & Spoken", "Children's Music", "Classical",
	"Comedy", "Country", "Dance", "Easy Listening", "Electronic", "Folk",
	"Hip Hop/Rap", "Holiday", "Industrial", "Jazz", "Latin", "New Age", "Pop",
	"R&B", "Reggae", "Rock", "Soundtrack", "Unclassifiable", "World",
}

// Config sizes a Vocabulary.
type Config struct {
	Seed    uint64
	Artists int // distinct artist names
	Titles  int // distinct song title cores
	Albums  int // distinct album names
	Genres  int // total genres including the 24 stock ones
	Extra   int // extra free words (query slang, tags: "remix", "live", ...)
}

// Vocabulary is an immutable corpus of name components.
type Vocabulary struct {
	Artists []string // "The Braimos", "Shanu Kleed", ...
	Titles  []string // "Dream Of The Flouson", ...
	Albums  []string
	Genres  []string
	Extra   []string // standalone words: tags, slang, qualifiers
}

// New builds the vocabulary for cfg. The same cfg always yields the same
// corpus.
func New(cfg Config) (*Vocabulary, error) {
	if cfg.Artists <= 0 || cfg.Titles <= 0 || cfg.Albums <= 0 {
		return nil, fmt.Errorf("vocab: artists, titles and albums must be positive: %+v", cfg)
	}
	if cfg.Genres < 0 || cfg.Extra < 0 {
		return nil, fmt.Errorf("vocab: negative corpus size: %+v", cfg)
	}
	v := &Vocabulary{}

	// Artists: compose from a word pool with a few realistic patterns.
	aw := Words(cfg.Seed, "artist-words", max(64, cfg.Artists/2))
	ar := rng.NewNamed(cfg.Seed, "vocab/artist-compose")
	seen := make(map[string]struct{}, cfg.Artists)
	for len(v.Artists) < cfg.Artists {
		var name string
		switch ar.Intn(6) {
		case 0:
			name = "The " + title(aw[ar.Intn(len(aw))]) + "s"
		case 1:
			name = title(aw[ar.Intn(len(aw))]) + " " + title(aw[ar.Intn(len(aw))])
		case 2:
			name = "DJ " + title(aw[ar.Intn(len(aw))])
		case 3:
			name = title(aw[ar.Intn(len(aw))])
		case 4:
			name = title(aw[ar.Intn(len(aw))]) + " & The " + title(aw[ar.Intn(len(aw))]) + "s"
		default:
			name = title(aw[ar.Intn(len(aw))]) + " " + title(aw[ar.Intn(len(aw))]) + " Band"
		}
		if _, dup := seen[name]; dup {
			name = fmt.Sprintf("%s %d", name, len(v.Artists))
		}
		seen[name] = struct{}{}
		v.Artists = append(v.Artists, name)
	}

	// Titles: 1-5 word phrases sprinkled with common function words so that
	// term-frequency analyses see realistic head terms ("the", "of", "love").
	tw := Words(cfg.Seed, "title-words", max(64, cfg.Titles/4))
	common := []string{"the", "of", "my", "you", "love", "in", "a", "to", "me", "your", "night", "heart", "and"}
	tr := rng.NewNamed(cfg.Seed, "vocab/title-compose")
	seenT := make(map[string]struct{}, cfg.Titles)
	for len(v.Titles) < cfg.Titles {
		n := 1 + tr.Intn(5)
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if tr.Bool(0.35) {
				parts = append(parts, common[tr.Intn(len(common))])
			} else {
				parts = append(parts, tw[tr.Intn(len(tw))])
			}
		}
		name := title(strings.Join(parts, " "))
		if _, dup := seenT[name]; dup {
			name = fmt.Sprintf("%s %d", name, len(v.Titles))
		}
		seenT[name] = struct{}{}
		v.Titles = append(v.Titles, name)
	}

	// Albums: like short titles.
	alw := Words(cfg.Seed, "album-words", max(64, cfg.Albums/3))
	alr := rng.NewNamed(cfg.Seed, "vocab/album-compose")
	seenA := make(map[string]struct{}, cfg.Albums)
	for len(v.Albums) < cfg.Albums {
		n := 1 + alr.Intn(3)
		parts := make([]string, 0, n)
		for i := 0; i < n; i++ {
			parts = append(parts, alw[alr.Intn(len(alw))])
		}
		name := title(strings.Join(parts, " "))
		if _, dup := seenA[name]; dup {
			name = fmt.Sprintf("%s Vol %d", name, len(v.Albums))
		}
		seenA[name] = struct{}{}
		v.Albums = append(v.Albums, name)
	}

	// Genres: the stock list first, then user-created variants ("Indie
	// Rock", "rock", "ROCK!!!", novel words) as the paper observed 1,452
	// distinct genre strings.
	v.Genres = append(v.Genres, StockGenres...)
	gr := rng.NewNamed(cfg.Seed, "vocab/genre-compose")
	gw := Words(cfg.Seed, "genre-words", max(16, cfg.Genres/4))
	seenG := make(map[string]struct{}, cfg.Genres)
	for _, g := range v.Genres {
		seenG[g] = struct{}{}
	}
	for len(v.Genres) < cfg.Genres {
		var g string
		switch gr.Intn(5) {
		case 0: // casing variant of a stock genre
			g = strings.ToLower(StockGenres[gr.Intn(len(StockGenres))])
		case 1: // qualified stock genre
			g = title(gw[gr.Intn(len(gw))]) + " " + StockGenres[gr.Intn(len(StockGenres))]
		case 2: // shouted
			g = strings.ToUpper(StockGenres[gr.Intn(len(StockGenres))]) + "!!!"
		default: // novel
			g = title(gw[gr.Intn(len(gw))])
		}
		if _, dup := seenG[g]; dup {
			g = fmt.Sprintf("%s %d", g, len(v.Genres))
		}
		seenG[g] = struct{}{}
		v.Genres = append(v.Genres, g)
	}

	if cfg.Extra > 0 {
		v.Extra = Words(cfg.Seed, "extra", cfg.Extra)
	}
	return v, nil
}

// title upper-cases the first letter of each space-separated word. Every
// input is ASCII (syllable words, their digit discriminators, the common
// function words), so a word start is upper-cased by one byte offset as the
// one copy is written.
func title(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (i == 0 || s[i-1] == ' ') && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}
