// Package analysis implements the paper's measurements: replica
// distributions of object names (Figures 1–2), term-level distributions
// (Figure 3), iTunes annotation distributions (Figure 4), and the temporal
// query-term analyses (Figures 5–7) — popularity tracking per evaluation
// interval, transient-popularity detection against a trained history, the
// stability of the popular-term set, and the query/file term mismatch.
//
// Every function consumes trace files (the crawler/logger output), never
// generator internals, so the measurement path matches the paper's.
package analysis

import (
	"fmt"
	"slices"
	"sort"

	"querycentric/internal/stats"
	"querycentric/internal/terms"
	"querycentric/internal/trace"
	"querycentric/internal/zipf"
)

// DistReport summarizes a "number of peers holding X" distribution, the
// layout of Figures 1–4.
type DistReport struct {
	Unique          int     // distinct keys (names / terms / annotations)
	TotalPlacements int     // observations contributing
	SingletonFrac   float64 // fraction of keys on exactly one peer
	Counts          []int   // per-key distinct-peer counts, descending
	Fit             zipf.Fit
	FitErr          error // non-nil if too little data to fit
}

// FracAtMost returns the fraction of keys held by at most n peers.
func (r *DistReport) FracAtMost(n int) float64 { return stats.FractionAtMost(r.Counts, n) }

// FracAtLeast returns the fraction of keys held by at least n peers.
func (r *DistReport) FracAtLeast(n int) float64 { return stats.FractionAtLeast(r.Counts, n) }

// RankFreq returns the rank–frequency series of the distribution.
func (r *DistReport) RankFreq() []stats.RankFreqPoint { return stats.RankFrequency(r.Counts) }

// String renders the headline numbers.
func (r *DistReport) String() string {
	return fmt.Sprintf("unique=%d placements=%d singleton=%.1f%% zipf_s=%.2f",
		r.Unique, r.TotalPlacements, 100*r.SingletonFrac, r.Fit.S)
}

// Replicas computes the Figure 1 (sanitize=false) or Figure 2
// (sanitize=true) distribution: for each distinct shared name, the number
// of distinct peers sharing it. Replicas are, as in the paper, files with
// identical (optionally sanitized) names.
func Replicas(tr *trace.ObjectTrace, sanitize bool) *DistReport {
	return distinctPeers(tr, func(name string) []string {
		if sanitize {
			s := terms.Sanitize(name)
			if s == "" {
				return nil
			}
			return []string{s}
		}
		return []string{name}
	})
}

// TermPeers computes the Figure 3 distribution: for each term produced by
// the protocol tokenization of shared names, the number of distinct peers
// holding at least one file containing the term.
func TermPeers(tr *trace.ObjectTrace) *DistReport {
	return distinctPeers(tr, terms.Tokenize)
}

// distinctPeers counts, for every key derived from the records, the number
// of distinct peers contributing it.
func distinctPeers(tr *trace.ObjectTrace, keysOf func(string) []string) *DistReport {
	// Sort a copy of record indices by peer so a single "last peer seen"
	// per key suffices for distinctness.
	recs := make([]trace.ObjectRecord, len(tr.Records))
	copy(recs, tr.Records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Peer < recs[j].Peer })

	seen := map[string]*peerCount{}
	placements := 0
	for _, rec := range recs {
		for _, key := range keysOf(rec.Name) {
			e, ok := seen[key]
			if !ok {
				seen[key] = &peerCount{lastPeer: rec.Peer, count: 1}
				placements++
				continue
			}
			if e.lastPeer != rec.Peer {
				e.lastPeer = rec.Peer
				e.count++
				placements++
			}
		}
	}
	rep := &DistReport{TotalPlacements: placements}
	rep.setCounts(seen)
	return rep
}

// peerCount tracks one key's distinct holders over records sorted by peer.
type peerCount struct {
	lastPeer int
	count    int
}

// setCounts fills the distribution from its per-key holder counts, most
// held first, so the report does not depend on map order.
func (r *DistReport) setCounts(seen map[string]*peerCount) {
	r.Unique = len(seen)
	r.Counts = make([]int, 0, len(seen))
	singles := 0
	for _, e := range seen {
		r.Counts = append(r.Counts, e.count)
		if e.count == 1 {
			singles++
		}
	}
	slices.SortFunc(r.Counts, func(a, b int) int { return b - a })
	if r.Unique > 0 {
		r.SingletonFrac = float64(singles) / float64(r.Unique)
	}
	r.Fit, r.FitErr = zipf.FitRankFrequency(r.Counts)
}

// TermCount is one entry of a ranked term popularity list.
type TermCount struct {
	Term  string
	Count int
}

// RankedFileTerms returns the terms of all shared names ranked by total
// occurrence count (most popular first; ties broken lexicographically for
// determinism). This ranking defines the popular file term set F* used by
// the Figure 7 mismatch analysis.
func RankedFileTerms(tr *trace.ObjectTrace) []TermCount {
	counts := map[string]int{}
	for _, rec := range tr.Records {
		for _, tok := range terms.Tokenize(rec.Name) {
			counts[tok]++
		}
	}
	return rankCounts(counts)
}

func rankCounts(counts map[string]int) []TermCount {
	out := make([]TermCount, 0, len(counts))
	for t, c := range counts {
		out = append(out, TermCount{Term: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// TopTerms returns the first k terms of a ranked list as a set.
func TopTerms(ranked []TermCount, k int) map[string]struct{} {
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make(map[string]struct{}, k)
	for _, tc := range ranked[:k] {
		out[tc.Term] = struct{}{}
	}
	return out
}

// Annotation selects which iTunes annotation a report covers.
type Annotation int

// The four annotations of Figure 4.
const (
	AnnotationSong Annotation = iota
	AnnotationGenre
	AnnotationAlbum
	AnnotationArtist
)

// String names the annotation.
func (a Annotation) String() string {
	switch a {
	case AnnotationSong:
		return "song"
	case AnnotationGenre:
		return "genre"
	case AnnotationAlbum:
		return "album"
	case AnnotationArtist:
		return "artist"
	default:
		return fmt.Sprintf("Annotation(%d)", int(a))
	}
}

// AnnotationReport extends DistReport with the missing-annotation fraction
// (the paper reports 8.7% of songs without genre, 8.1% without album).
type AnnotationReport struct {
	DistReport
	Annotation  Annotation
	MissingFrac float64 // fraction of song records with an empty annotation
}

// Annotations computes the Figure 4 distribution for one annotation: for
// each distinct annotation value, the number of distinct clients with at
// least one song carrying it.
func Annotations(tr *trace.SongTrace, a Annotation) (*AnnotationReport, error) {
	value := func(r *trace.SongRecord) string {
		switch a {
		case AnnotationSong:
			return r.Track
		case AnnotationGenre:
			return r.Genre
		case AnnotationAlbum:
			return r.Album
		case AnnotationArtist:
			return r.Artist
		}
		return ""
	}
	if a < AnnotationSong || a > AnnotationArtist {
		return nil, fmt.Errorf("analysis: unknown annotation %d", a)
	}

	recs := make([]trace.SongRecord, len(tr.Records))
	copy(recs, tr.Records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Peer < recs[j].Peer })

	seen := map[string]*peerCount{}
	missing, placements := 0, 0
	for i := range recs {
		v := value(&recs[i])
		if v == "" {
			missing++
			continue
		}
		e, ok := seen[v]
		if !ok {
			seen[v] = &peerCount{lastPeer: recs[i].Peer, count: 1}
			placements++
			continue
		}
		if e.lastPeer != recs[i].Peer {
			e.lastPeer = recs[i].Peer
			e.count++
			placements++
		}
	}
	rep := &AnnotationReport{Annotation: a}
	rep.TotalPlacements = placements
	if len(tr.Records) > 0 {
		rep.MissingFrac = float64(missing) / float64(len(tr.Records))
	}
	rep.setCounts(seen)
	return rep, nil
}
