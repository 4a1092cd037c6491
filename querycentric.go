// Package querycentric reproduces "On the need for query-centric
// unstructured peer-to-peer overlays" (Acosta & Chandra, IPPS 2008): the
// trace substrates (a wire-level Gnutella network + crawler, a DAAP/iTunes
// share population + crawler, a temporal query-workload generator), the
// paper's analyses (replica/term/annotation distributions, popular-term
// stability, transient popularity, the query/file term mismatch), the
// search simulations (flooding, random walks, Chord, hybrid, Gia, adaptive
// synopses) and one experiment runner per table and figure.
//
// This package is the public facade: it re-exports, through type aliases
// and thin wrappers, the names the commands, the benchmark and the Example
// functions use, so none of them imports querycentric/internal/...
// directly. Every experiment is reachable by name through Runners.
//
// # Quick start
//
//	env := querycentric.NewEnv(querycentric.ScaleTiny, 42)
//	fig8, err := querycentric.Fig8(env) // flood success, uniform vs Zipf placement
//	for _, r := range querycentric.Runners { // every table and figure
//		res, err := r.Run(env)
//		...
//		err = querycentric.WriteResultTable(os.Stdout, res)
//	}
//
// The Example functions show the facade end to end; the cmd/ tools run
// every experiment, and DESIGN.md maps the system.
package querycentric

import (
	"io"

	"querycentric/internal/experiments"
	"querycentric/internal/obs"
)

// Observability plane (see internal/obs): a deterministic metrics layer a
// crawl can publish into. Disabled (nil) it costs nothing and changes
// nothing.
type (
	Registry    = obs.Registry
	FloodTraces = obs.FloodTraces
)

// Result is implemented by every experiment result type: a stable name
// and the tab-separated table qc-sim and qc-figures render. Table()[0] is
// the header row (without the leading "# ").
type Result = experiments.Result

// WriteResultTable renders a Result as a commented-header TSV table.
func WriteResultTable(w io.Writer, r Result) error { return experiments.WriteTable(w, r) }

// Runner is one entry of the experiment registry Runners, which qc-sim
// and qc-figures run from.
type Runner = experiments.Runner

// Runners is the experiment registry: one entry per table, figure and
// extension experiment.
var Runners = experiments.Runners

// Scale selects experiment sizing (tiny/small/default/full/1m).
type Scale = experiments.Scale

// Scales from smoke test to paper scale and beyond (Scale1M is the
// million-peer substrate scale served by the sharded build + mapped load).
const (
	ScaleTiny    = experiments.ScaleTiny
	ScaleSmall   = experiments.ScaleSmall
	ScaleDefault = experiments.ScaleDefault
	ScaleFull    = experiments.ScaleFull
	Scale1M      = experiments.Scale1M
)

// ParseScale parses "tiny", "small", "default", "full" or "1m".
func ParseScale(s string) (Scale, error) { return experiments.ParseScale(s) }

// Env builds and memoizes the shared experiment artifacts (crawled traces,
// query workload) for one (scale, seed).
type Env = experiments.Env

// NewEnv creates an experiment environment.
func NewEnv(scale Scale, seed uint64) *Env { return experiments.NewEnv(scale, seed) }

// Figure 8 result types.
type (
	Fig8Result = experiments.Fig8Result
	Fig8Curve  = experiments.Fig8Curve
)

// Fig8 reproduces Figure 8 (flood success, uniform vs Zipf placement).
func Fig8(e *Env) (*Fig8Result, error) { return experiments.Fig8(e) }

// ReplicationResult is the allocation-strategy ablation.
type ReplicationResult = experiments.ReplicationResult

// ReplicationStrategies measures uniform/proportional/square-root replica
// allocation driven by query vs file popularity.
func ReplicationStrategies(e *Env) (*ReplicationResult, error) {
	return experiments.ReplicationStrategies(e)
}

// Query-centric head-to-head types: the five-arm comparison of static
// flooding, QRP, interest shortcuts, the adaptive overlay and Chord under
// the paper's query/file mismatch.
type (
	QueryCentricResult = experiments.QueryCentricResult
	QueryCentricArm    = experiments.QueryCentricArm
	QueryCentricConfig = experiments.QueryCentricConfig
)

// DefaultQueryCentricConfig mirrors the adaptive package's default knobs.
func DefaultQueryCentricConfig() QueryCentricConfig {
	return experiments.DefaultQueryCentricConfig()
}

// QueryCentricWith runs the head-to-head with explicit adaptation knobs.
func QueryCentricWith(e *Env, cfg QueryCentricConfig) (*QueryCentricResult, error) {
	return experiments.QueryCentricWith(e, cfg)
}
