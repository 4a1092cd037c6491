package querycentric

import (
	"querycentric/internal/analysis"
	"querycentric/internal/terms"
)

// Analysis report types (see internal/analysis).
type (
	DistReport       = analysis.DistReport
	AnnotationReport = analysis.AnnotationReport
	Annotation       = analysis.Annotation
	TermCount        = analysis.TermCount
	Interval         = analysis.Interval
	IntervalConfig   = analysis.IntervalConfig
	IntervalEngine   = analysis.IntervalEngine
	SeriesPoint      = analysis.SeriesPoint
	TransientConfig  = analysis.TransientConfig
	TransientPoint   = analysis.TransientPoint
)

// The four iTunes annotations of Figure 4.
const (
	AnnotationSong   = analysis.AnnotationSong
	AnnotationGenre  = analysis.AnnotationGenre
	AnnotationAlbum  = analysis.AnnotationAlbum
	AnnotationArtist = analysis.AnnotationArtist
)

// Object-trace analyses (Figures 1–3 and the ranked file terms).
var (
	Replicas        = analysis.Replicas
	TermPeers       = analysis.TermPeers
	RankedFileTerms = analysis.RankedFileTerms
	TopTerms        = analysis.TopTerms
)

// Annotations computes a Figure 4 distribution for one annotation.
func Annotations(tr *SongTrace, a Annotation) (*AnnotationReport, error) {
	return analysis.Annotations(tr, a)
}

// Temporal analyses (Figures 5–7), all computed by one online interval
// engine: feed it a query stream, get per-interval popular sets, stability
// and transients.
var (
	DefaultIntervalConfig  = analysis.DefaultIntervalConfig
	NewIntervalEngine      = analysis.NewIntervalEngine
	Intervals              = analysis.Intervals
	StabilitySeries        = analysis.StabilitySeries
	Mismatch               = analysis.Mismatch
	MismatchSeries         = analysis.MismatchSeries
	AllTermsMismatchSeries = analysis.AllTermsMismatchSeries
	DefaultTransientConfig = analysis.DefaultTransientConfig
	Transients             = analysis.Transients
	TransientSummary       = analysis.TransientSummary
)

// Tokenize splits a name or query string with the Gnutella protocol
// tokenization the paper's analyses use.
func Tokenize(s string) []string { return terms.Tokenize(s) }

// Sanitize normalizes a file name as the Figure 2 analysis does
// (lowercase, letters and digits only).
func Sanitize(s string) string { return terms.Sanitize(s) }
