// Package namegen synthesizes Gnutella-style shared file names.
//
// The paper's Gnutella analysis is driven entirely by file-name strings:
// canonical names like "Aaron Neville - I Don't Know Much.mp3", near-variant
// replicas that differ only in case, punctuation, featuring credits or
// spelling ("Aaron Neville ft. Linda Ronstadt- I Dont Know Much.MP3"), and
// non-specific names like "01 Track.wma" that appear on thousands of peers
// without being the same object. This package generates all three classes
// deterministically so the Figure 1/2 sanitization experiment has real
// material to work on.
package namegen

import (
	"fmt"
	"strings"

	"querycentric/internal/rng"
	"querycentric/internal/vocab"
)

// Extensions and their weights, loosely following the media mix the paper
// reports (most shared content is audio; video and images trail).
var extensions = []struct {
	ext    string
	weight float64
}{
	{".mp3", 0.62},
	{".wma", 0.10},
	{".avi", 0.07},
	{".mpg", 0.04},
	{".wmv", 0.03},
	{".jpg", 0.05},
	{".ogg", 0.02},
	{".m4a", 0.04},
	{".zip", 0.02},
	{".exe", 0.01},
}

// NonSpecificNames are names that recur across many peers without denoting
// the same object (the paper found "01 Track.wma" on 2,681 peers).
var NonSpecificNames = []string{
	"01 Track.wma", "02 Track.wma", "03 Track.wma", "Track 1.mp3",
	"Track 2.mp3", "intro.mp3", "Intro.mp3", "untitled.mp3", "AudioTrack 01.mp3",
	"New Recording.mp3", "track01.cda.mp3",
}

// The variant model mirrors the paper's observations (≈20% misspellings,
// case and punctuation noise common).
const (
	// caseVariantProb is the chance a replica's name changes letter case.
	caseVariantProb float64 = 0.25
	// punctVariantProb is the chance punctuation is altered (dash spacing,
	// dropped apostrophes).
	punctVariantProb float64 = 0.20
	// featVariantProb is the chance a featuring credit is added/reworded.
	featVariantProb float64 = 0.10
	// misspellProb is the chance of a single-character misspelling; the
	// paper cites Zaharia et al.: ~20% of descriptions are misspelt.
	misspellProb float64 = 0.20
	// extCaseProb is the chance the extension changes case (.mp3 → .MP3).
	extCaseProb float64 = 0.15
)

// Generator derives canonical names and their replica variants.
type Generator struct {
	vocab *vocab.Vocabulary
	seed  uint64
	cum   []float64 // cumulative extension weights
}

// New creates a Generator over the vocabulary.
func New(v *vocab.Vocabulary, seed uint64) (*Generator, error) {
	if v == nil || len(v.Artists) == 0 || len(v.Titles) == 0 {
		return nil, fmt.Errorf("namegen: vocabulary must have artists and titles")
	}
	g := &Generator{vocab: v, seed: seed}
	total := 0.0
	g.cum = make([]float64, len(extensions))
	for i, e := range extensions {
		total += e.weight
		g.cum[i] = total
	}
	return g, nil
}

// Canonical returns the canonical shared name of object objID. The mapping
// is a pure function of (seed, objID).
//
// A substantial fraction of names carry an object-specific junk token
// (release-group tags, rip hashes, bitrates): real Gnutella names are full
// of them, and they are what makes the term-level distribution of Figure 3
// so heavy-tailed — 71% of the 1.22M distinct terms appeared on a single
// peer.
func (g *Generator) Canonical(objID int) string {
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
		base += " " + junkToken(r)
		if r.Bool(0.25) {
			base += " " + junkToken(r)
		}
	}
	return base + ext
}

// junkToken fabricates the rip-specific tags real shared names carry.
func junkToken(r *rng.Source) string {
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

// Variant derives a replica-name variant of name: it perturbs case,
// punctuation, featuring credits and spelling the way real Gnutella
// replicas differ.
func (g *Generator) Variant(name string, r *rng.Source) string {
	base, ext := splitExt(name)
	if r.Bool(featVariantProb) {
		other := g.vocab.Artists[r.Intn(len(g.vocab.Artists))]
		conj := []string{" ft. ", " feat. ", " and ", " & "}[r.Intn(4)]
		if i := strings.Index(base, " - "); i >= 0 {
			base = base[:i] + conj + other + base[i:]
		} else {
			base = base + conj + other
		}
	}
	if r.Bool(caseVariantProb) {
		switch r.Intn(3) {
		case 0:
			base = strings.ToLower(base)
		case 1:
			base = strings.ToUpper(base)
		default:
			base = flipOneCase(base, r)
		}
	}
	if r.Bool(punctVariantProb) {
		switch r.Intn(4) {
		case 0:
			base = strings.ReplaceAll(base, " - ", "- ")
		case 1:
			base = strings.ReplaceAll(base, " - ", " -")
		case 2:
			base = strings.ReplaceAll(base, "'", "")
		default:
			base = strings.ReplaceAll(base, " ", "  ")
		}
	}
	if r.Bool(misspellProb) {
		base = misspell(base, r)
	}
	if r.Bool(extCaseProb) {
		ext = strings.ToUpper(ext)
	}
	return base + ext
}

// splitExt splits a name into base and extension ("" if none).
func splitExt(name string) (base, ext string) {
	if i := strings.LastIndexByte(name, '.'); i > 0 && len(name)-i <= 5 {
		return name[:i], name[i:]
	}
	return name, ""
}

// misspell applies one of: drop a letter, transpose two adjacent letters,
// duplicate a letter. Only ASCII letters are touched.
func misspell(s string, r *rng.Source) string {
	letters := []int{}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			letters = append(letters, i)
		}
	}
	if len(letters) < 2 {
		return s
	}
	b := []byte(s)
	switch r.Intn(3) {
	case 0: // drop
		i := letters[r.Intn(len(letters))]
		return string(b[:i]) + string(b[i+1:])
	case 1: // transpose with next byte if also a letter
		i := letters[r.Intn(len(letters)-1)]
		if i+1 < len(b) && isLetter(b[i+1]) {
			b[i], b[i+1] = b[i+1], b[i]
		}
		return string(b)
	default: // duplicate
		i := letters[r.Intn(len(letters))]
		return string(b[:i+1]) + string(b[i:])
	}
}

func isLetter(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func flipOneCase(s string, r *rng.Source) string {
	b := []byte(s)
	idx := []int{}
	for i, c := range b {
		if isLetter(c) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return s
	}
	i := idx[r.Intn(len(idx))]
	b[i] ^= 0x20
	return string(b)
}
