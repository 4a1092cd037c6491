// Package daap implements the iTunes-sharing substrate: an annotated song
// population across shares, a DAAP-like HTTP server speaking DMAP, the
// share restriction model the paper encountered (password protection, the
// five-clients-per-day busy limit, firewalls), a Gracenote-like canonical
// metadata service, and an AppleRecords-style crawler producing song
// traces.
//
// It substitutes for the paper's Notre Dame measurement: 620 shares
// discovered, of which 45 were password-protected, 33 busy, many
// firewalled, and 239 readable, yielding 533,768 songs (171,068 unique)
// with Zipf-like song/genre/album/artist annotation distributions.
package daap

import (
	"fmt"
	"sort"

	"querycentric/internal/rng"
	"querycentric/internal/vocab"
	"querycentric/internal/zipf"
)

// SongMeta is one song's annotations as stored by a client.
type SongMeta struct {
	Track  string
	Artist string
	Album  string
	Genre  string
}

// Gracenote is the deterministic canonical-metadata service: the paper
// notes ripped songs were annotated automatically from Gracenote, which is
// why album/artist strings converge across clients. Artist, album and
// genre popularity are Zipf: a handful of head artists account for many
// songs while most artists contribute one or two — that skew is what makes
// 65% of artists appear on a single client (Figure 4d).
type Gracenote struct {
	vocab      *vocab.Vocabulary
	seed       uint64
	totalSongs int // 0 disables rank coupling
	artistDist *zipf.Dist
	albumDist  *zipf.Dist
	genreDist  *zipf.Dist
}

// NewGracenote builds the service over a vocabulary. totalSongs, when
// positive, enables rank coupling: low song IDs (the popular songs) map to
// popular artists/albums and high song IDs to obscure ones — the
// correlation that makes 65% of observed artists appear on a single client
// (an obscure artist's one song is itself rarely replicated).
func NewGracenote(v *vocab.Vocabulary, seed uint64, totalSongs int) (*Gracenote, error) {
	if v == nil || len(v.Titles) == 0 || len(v.Artists) == 0 || len(v.Albums) == 0 {
		return nil, fmt.Errorf("daap: vocabulary must have titles, artists and albums")
	}
	g := &Gracenote{vocab: v, seed: seed, totalSongs: totalSongs}
	var err error
	if g.artistDist, err = zipf.New(len(v.Artists), 1.05); err != nil {
		return nil, err
	}
	if g.albumDist, err = zipf.New(len(v.Albums), 1.05); err != nil {
		return nil, err
	}
	if len(v.Genres) > 0 {
		if g.genreDist, err = zipf.New(len(v.Genres), 1.4); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Lookup returns the canonical metadata of songID. Identical inputs always
// return identical metadata.
func (g *Gracenote) Lookup(songID int) SongMeta {
	r := rng.NewNamed(g.seed, fmt.Sprintf("gracenote/%d", songID))
	meta := SongMeta{
		Track:  g.vocab.Titles[r.Intn(len(g.vocab.Titles))],
		Artist: g.vocab.Artists[g.rankDraw(g.artistDist, songID, r)-1],
		Album:  g.vocab.Albums[g.rankDraw(g.albumDist, songID, r)-1],
	}
	if g.genreDist != nil {
		meta.Genre = g.vocab.Genres[g.rankDraw(g.genreDist, songID, r)-1]
	}
	return meta
}

// rankDraw samples a rank from d, coupled (with jitter) to the song's own
// popularity rank when coupling is enabled.
func (g *Gracenote) rankDraw(d *zipf.Dist, songID int, r *rng.Source) int {
	if g.totalSongs <= 0 || songID < 0 || songID >= g.totalSongs {
		return d.Sample(r)
	}
	// Jittered quantile coupling: the song's popularity quantile, blurred
	// by ±12%, drives the annotation's popularity quantile.
	u := (float64(songID) + r.Float64()) / float64(g.totalSongs)
	u += (r.Float64() - 0.5) * 0.25
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return d.Quantile(u)
}

// ShareStatus is the reachability class of a share.
type ShareStatus int

const (
	StatusOK ShareStatus = iota
	StatusPassword
	StatusBusy
	StatusFirewalled
)

// Share is one iTunes share.
type Share struct {
	ID           int
	Name         string
	Status       ShareStatus
	Password     string // non-empty for StatusPassword
	PriorClients int    // distinct clients already seen today (busy model)
	Songs        []SongMeta
}

// Config sizes a share population.
type Config struct {
	Seed   uint64
	Shares int // total shares discovered by the Zeroconf sweep

	UniqueSongs int // distinct songs across readable shares
}

// The funnel, as fractions of Shares (the remainder is readable). The
// paper's funnel: 45/620 password, 33/620 busy, 239/620 readable.
const (
	passwordFrac   float64 = 45.0 / 620
	busyFrac       float64 = 33.0 / 620
	firewalledFrac float64 = 303.0 / 620
)

// replicaAlpha shapes the replica counts, P(clients holding song = k) ∝
// k^-α, over k up to the number of readable shares.
const replicaAlpha float64 = 2.05

// Annotation noise.
const (
	noGenreFrac      float64 = 0.087 // songs stored without a genre (paper: 8.7%)
	noAlbumFrac      float64 = 0.081 // songs stored without an album (paper: 8.1%)
	genreVariantProb float64 = 0.10  // user-edited genre strings ("rock", "ROCK!!!")
)

// DefaultConfig is the scaled-down Notre Dame population: 125 shares with
// the paper's funnel proportions, ~11,000 unique songs.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:        seed,
		Shares:      125,
		UniqueSongs: 11000,
	}
}

// Population is a fully built set of shares.
type Population struct {
	Config Config
	Shares []*Share
	// Readable indexes the shares with StatusOK.
	Readable []*Share
}

// BuildPopulation constructs the share population for cfg.
func BuildPopulation(cfg Config) (*Population, error) {
	if cfg.Shares <= 0 {
		return nil, fmt.Errorf("daap: Shares must be positive, got %d", cfg.Shares)
	}
	if cfg.UniqueSongs <= 0 {
		return nil, fmt.Errorf("daap: UniqueSongs must be positive, got %d", cfg.UniqueSongs)
	}

	vcfg := vocab.Config{
		Seed:    cfg.Seed,
		Artists: max(400, cfg.UniqueSongs),
		// Titles must comfortably exceed songs: the paper saw 171,068
		// unique objects collapse only to 152,850 unique song names,
		// i.e. ~10% title collision.
		Titles: max(2000, 4*cfg.UniqueSongs),
		Albums: max(300, (cfg.UniqueSongs*4)/5),
		Genres: 500,
		Extra:  200,
	}
	voc, err := vocab.New(vcfg)
	if err != nil {
		return nil, err
	}
	gn, err := NewGracenote(voc, cfg.Seed, cfg.UniqueSongs)
	if err != nil {
		return nil, err
	}

	p := &Population{Config: cfg}
	statusRNG := rng.NewNamed(cfg.Seed, "daap/status")
	nameRNG := rng.NewNamed(cfg.Seed, "daap/share-names")
	for i := 0; i < cfg.Shares; i++ {
		s := &Share{ID: i, Name: fmt.Sprintf("%s's Music", voc.Artists[nameRNG.Intn(len(voc.Artists))])}
		u := statusRNG.Float64()
		switch {
		case u < passwordFrac:
			s.Status = StatusPassword
			s.Password = fmt.Sprintf("secret-%d", i)
		case u < passwordFrac+busyFrac:
			s.Status = StatusBusy
			s.PriorClients = BusyClientLimit + statusRNG.Intn(5)
		case u < passwordFrac+busyFrac+firewalledFrac:
			s.Status = StatusFirewalled
		default:
			s.Status = StatusOK
			s.PriorClients = statusRNG.Intn(3)
			p.Readable = append(p.Readable, s)
		}
		p.Shares = append(p.Shares, s)
	}
	if len(p.Readable) == 0 {
		return nil, fmt.Errorf("daap: no readable shares materialized; increase Shares")
	}

	// Place songs across the readable shares with power-law replica counts.
	repDist, err := zipf.New(len(p.Readable), replicaAlpha)
	if err != nil {
		return nil, err
	}
	repRNG := rng.NewNamed(cfg.Seed, "daap/replicas")
	placeRNG := rng.NewNamed(cfg.Seed, "daap/placement")
	editRNG := rng.NewNamed(cfg.Seed, "daap/edits")
	// Replica counts sorted descending by song ID: song 0 is the most
	// replicated. Sorting preserves the marginal power law while creating
	// the popularity correlation Gracenote's rank coupling relies on.
	ks := make([]int, cfg.UniqueSongs)
	for i := range ks {
		ks[i] = repDist.Sample(repRNG)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ks)))
	for songID := 0; songID < cfg.UniqueSongs; songID++ {
		meta := gn.Lookup(songID)
		k := ks[songID]
		for _, si := range placeRNG.SampleInts(len(p.Readable), k) {
			inst := meta
			if editRNG.Bool(noGenreFrac) {
				inst.Genre = ""
			} else if editRNG.Bool(genreVariantProb) {
				inst.Genre = genreVariant(inst.Genre, editRNG)
			}
			if editRNG.Bool(noAlbumFrac) {
				inst.Album = ""
			}
			p.Readable[si].Songs = append(p.Readable[si].Songs, inst)
		}
	}
	return p, nil
}

// genreVariant perturbs a genre string the way users do.
func genreVariant(g string, r *rng.Source) string {
	if g == "" {
		return g
	}
	switch r.Intn(3) {
	case 0:
		return lower(g)
	case 1:
		return upper(g) + "!!!"
	default:
		return "My " + g
	}
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}
