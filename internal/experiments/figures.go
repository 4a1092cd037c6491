package experiments

import (
	"querycentric/internal/analysis"
	"querycentric/internal/crawler"
	"querycentric/internal/daap"
	"querycentric/internal/stats"
)

// DistResult packages a Figure 1/2/3 distribution with its headline
// statistics and the paper's reference values for EXPERIMENTS.md.
type DistResult struct {
	Label         string
	Report        *analysis.DistReport
	CrawlStats    *crawler.Stats
	SingletonFrac float64
	FracAtMost37  float64 // the paper's "≤0.1% of 37,572 peers" threshold
	RankFreq      []stats.RankFreqPoint
}

// Fig1 reproduces Figure 1: the replica distribution of exact object
// names. Paper: 8.1M unique, 70.5% on a single peer, 99.5% on ≤37 peers.
func Fig1(e *Env) (*DistResult, error) {
	tr, st, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	rep := analysis.Replicas(tr, false)
	return &DistResult{
		Label:         "fig1-object-replicas",
		Report:        rep,
		CrawlStats:    st,
		SingletonFrac: rep.SingletonFrac,
		FracAtMost37:  rep.FracAtMost(37),
		RankFreq:      rep.RankFreq(),
	}, nil
}

// Fig2 reproduces Figure 2: the same distribution after sanitizing names
// (lowercase, stripped punctuation). Paper: 7.9M unique, 69.8% singleton,
// 99.4% on ≤37 peers.
func Fig2(e *Env) (*DistResult, error) {
	tr, st, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	rep := analysis.Replicas(tr, true)
	return &DistResult{
		Label:         "fig2-sanitized-replicas",
		Report:        rep,
		CrawlStats:    st,
		SingletonFrac: rep.SingletonFrac,
		FracAtMost37:  rep.FracAtMost(37),
		RankFreq:      rep.RankFreq(),
	}, nil
}

// Fig3 reproduces Figure 3: the per-term distribution under protocol
// tokenization. Paper: 1.22M unique terms, 71.3% on one peer, 98.3% on
// ≤37 peers.
func Fig3(e *Env) (*DistResult, error) {
	tr, st, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	rep := analysis.TermPeers(tr)
	return &DistResult{
		Label:         "fig3-term-peers",
		Report:        rep,
		CrawlStats:    st,
		SingletonFrac: rep.SingletonFrac,
		FracAtMost37:  rep.FracAtMost(37),
		RankFreq:      rep.RankFreq(),
	}, nil
}

// Fig4Result holds the four iTunes annotation distributions.
type Fig4Result struct {
	Reports    map[analysis.Annotation]*analysis.AnnotationReport
	CrawlStats *daap.CrawlStats
}

// Fig4 reproduces Figure 4(a–d): the iTunes song/genre/album/artist
// distributions. Paper: 64% of songs on a single client; ~1,452 genres
// (8.7% of songs without genre, 56% of genres on one peer); 32,353 albums
// (8.1% w/o album, 65.7% unreplicated); 25,309 artists (65% on one peer).
func Fig4(e *Env) (*Fig4Result, error) {
	tr, st, err := e.SongTrace()
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{
		Reports:    map[analysis.Annotation]*analysis.AnnotationReport{},
		CrawlStats: st,
	}
	for _, a := range []analysis.Annotation{
		analysis.AnnotationSong, analysis.AnnotationGenre,
		analysis.AnnotationAlbum, analysis.AnnotationArtist,
	} {
		rep, err := analysis.Annotations(tr, a)
		if err != nil {
			return nil, err
		}
		out.Reports[a] = rep
	}
	return out, nil
}

// RareObjectResult is the §VI check against the Loo et al. rare-query rule.
type RareObjectResult struct {
	FracAtLeast20 float64 // paper: fewer than 4% of objects on ≥20 peers
	MeanReplicas  float64
}

// RareObjectFraction reproduces the §VI statistic: the fraction of objects
// replicated on 20 or more peers.
func RareObjectFraction(e *Env) (*RareObjectResult, error) {
	tr, _, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	rep := analysis.Replicas(tr, false)
	mean := 0.0
	if rep.Unique > 0 {
		mean = float64(rep.TotalPlacements) / float64(rep.Unique)
	}
	return &RareObjectResult{
		FracAtLeast20: rep.FracAtLeast(20),
		MeanReplicas:  mean,
	}, nil
}
