// Package experiments contains one runner per table and figure of the
// paper's evaluation, each producing the plotted series plus the headline
// statistics, at a configurable scale. The qc-figures command and the
// repository benchmarks drive these runners; EXPERIMENTS.md records their
// output against the paper's numbers.
package experiments

import (
	"fmt"
	"sync"

	"querycentric/internal/analysis"
	"querycentric/internal/catalog"
	"querycentric/internal/crawler"
	"querycentric/internal/daap"
	"querycentric/internal/events"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
	"querycentric/internal/querygen"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
	"querycentric/internal/strategy"
	"querycentric/internal/trace"
)

// Scale selects experiment sizing.
type Scale int

// Scales from smoke-test to paper-scale and beyond.
const (
	ScaleTiny  Scale = iota // CI smoke tests, < 1 s total
	ScaleSmall              // seconds
	ScaleDefault
	ScaleFull // paper-scale populations; needs minutes and several GB
	// Scale1M is a million-peer overlay sharing the paper's 8.1M-object
	// population — the substrate-stress scale. Building it in memory is out
	// of reach on small boxes; it exists for the sharded snapshot builder
	// and mmap loading (TestScaleGate's 1m row, make scale1m-smoke).
	Scale1M
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleDefault:
		return "default"
	case ScaleFull:
		return "full"
	case Scale1M:
		return "1m"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale parses a scale name.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "default", "":
		return ScaleDefault, nil
	case "full":
		return ScaleFull, nil
	case "1m":
		return Scale1M, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|default|full|1m)", s)
}

// Params are the size knobs derived from a Scale.
type Params struct {
	// Gnutella crawl population.
	GnutellaPeers  int
	UniqueObjects  int
	FirewalledFrac float64
	// iTunes population.
	Shares      int
	UniqueSongs int
	// Query workload.
	Queries       int
	TraceDuration int64
	// Flood simulation (Figure 8 / §V table).
	SimNodes  int
	SimTrials int
}

// ParamsFor returns the sizing for a scale. ScaleFull reproduces the
// paper's populations (37,572 peers / 8.1M objects / 2.5M queries / 40,000
// simulated nodes).
func ParamsFor(s Scale) Params {
	switch s {
	case ScaleTiny:
		return Params{
			GnutellaPeers: 120, UniqueObjects: 2500, FirewalledFrac: 0,
			Shares: 40, UniqueSongs: 1500,
			Queries: 15000, TraceDuration: 12 * 3600,
			SimNodes: 2000, SimTrials: 150,
		}
	case ScaleSmall:
		return Params{
			GnutellaPeers: 400, UniqueObjects: 16000, FirewalledFrac: 0.1,
			Shares: 60, UniqueSongs: 4000,
			Queries: 60000, TraceDuration: 48 * 3600,
			SimNodes: 8000, SimTrials: 300,
		}
	case ScaleFull:
		return Params{
			GnutellaPeers: 37572, UniqueObjects: 8100000, FirewalledFrac: 0.1,
			Shares: 620, UniqueSongs: 171068,
			Queries: 2500000, TraceDuration: 7 * 24 * 3600,
			SimNodes: 40000, SimTrials: 2000,
		}
	case Scale1M:
		// A 27× larger overlay over the paper's object population: content
		// density per peer drops accordingly (the interesting pressure at
		// this scale is substrate size, not per-peer library depth).
		return Params{
			GnutellaPeers: 1000000, UniqueObjects: 8100000, FirewalledFrac: 0.1,
			Shares: 620, UniqueSongs: 171068,
			Queries: 2500000, TraceDuration: 7 * 24 * 3600,
			SimNodes: 40000, SimTrials: 2000,
		}
	default: // ScaleDefault
		return Params{
			GnutellaPeers: 1000, UniqueObjects: 81000, FirewalledFrac: 0.1,
			Shares: 125, UniqueSongs: 11000,
			Queries: 250000, TraceDuration: 7 * 24 * 3600,
			SimNodes: 40000, SimTrials: 600,
		}
	}
}

// Env builds and memoizes the shared artifacts (the Gnutella population,
// crawled traces, query workload) so several figures can reuse one
// population, exactly as the paper derived all of Figures 1–3 and 7 from
// one crawl. The population is one snapshot mapping, opened on first use
// and kept for the Env's whole life: every network the Env hands out is a
// fresh restore that views it, so the Env never unmaps it.
type Env struct {
	Seed uint64
	P    Params

	// Workers bounds the trial-level worker pool used by the experiment
	// runners; 0 (the default) resolves to GOMAXPROCS. Results are
	// byte-identical for every value — each trial derives its own RNG
	// stream and workers only change who executes it (see
	// internal/parallel).
	Workers int

	// Obs, when non-nil, receives metrics from every subsystem the
	// environment builds or drives (crawler funnel, flood counters, fault
	// fires, maintenance activity) plus per-phase artifact-build timings.
	// Attaching a registry never changes experiment results, and the
	// metric values themselves are invariant under Workers. One counter
	// still varies with the host's CPU count: parallel_map_units_total,
	// because the dictionary and holder-index builds shard by GOMAXPROCS.
	Obs *obs.Registry

	// FloodTraces, when non-nil (and Obs is attached to a network), records
	// a bounded deterministic sample of per-flood hop traces.
	FloodTraces *obs.FloodTraces

	// Windows, when non-nil, receives the windowed time series streamed by
	// event-engine experiments (Recovery); the series land in the run
	// manifest next to the scalar metrics and are fingerprinted with them.
	Windows *obs.WindowLog

	// SnapshotLoad, when non-empty, maps the Gnutella population from this
	// snapshot file instead of building it, so ObjectTrace's crawl and
	// every runner network are restores of it (byte-identical to a fresh
	// build). SnapshotSave, when non-empty, persists the population there:
	// a fresh one is built shard by shard straight into the file, a loaded
	// one is copied once a restore has verified it.
	SnapshotLoad string
	SnapshotSave string

	popMu sync.Mutex
	pop   *snapshot.Population

	mu        sync.Mutex
	objTrace  *trace.ObjectTrace
	objStats  *crawler.Stats
	songTrace *trace.SongTrace
	songStats *daap.CrawlStats
	workload  *querygen.Workload
	fileTerms []analysis.TermCount
}

// NewEnv creates an environment at the given scale.
func NewEnv(scale Scale, seed uint64) *Env {
	return &Env{Seed: seed, P: ParamsFor(scale)}
}

// workers resolves the environment's worker bound.
func (e *Env) workers() int { return parallel.Workers(e.Workers) }

// Population is the one recipe for "the calibrated Gnutella population":
// the catalog shape measured by the paper's crawl (catalog.DefaultConfig)
// at this scale's size, plus the overlay that carries it. Every build path
// — the Env's population (snapshot.OpenPopulation, behind ObjectTrace and
// every runner's newNetwork), the facade's GnutellaCrawl and TestScaleGate's
// construction gates — derives from it, so they all draw the identical
// population. Callers add Workers (and sharded builds ShardSize) as needed.
func (p Params) Population(seed uint64) snapshot.BuildConfig {
	ccfg := catalog.DefaultConfig(seed)
	ccfg.Peers, ccfg.UniqueObjects = p.GnutellaPeers, p.UniqueObjects
	gcfg := gnet.DefaultConfig(seed)
	gcfg.FirewalledFrac = p.FirewalledFrac
	return snapshot.BuildConfig{Catalog: ccfg, Network: gcfg}
}

// newNetwork restores a fresh instrumented overlay, indexes included,
// from the environment's population, opened on first use (under popMu:
// ObjectTrace holds e.mu). A runner calls it once per arm or sweep point
// that mutates topology, libraries or liveness; points that only read it
// or differ by a swappable plane (FaultSweepWith's fault planes) share
// one. Restores resolve their own worker count: the dictionary and holder
// index shard by it, so e.Workers would leak into parallel_map_units_total.
func (e *Env) newNetwork() (*gnet.Network, error) {
	e.popMu.Lock()
	defer e.popMu.Unlock()
	if e.pop == nil {
		pop, err := snapshot.OpenPopulation(e.SnapshotLoad, e.SnapshotSave, e.P.Population(e.Seed), e.Obs)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		e.pop = pop
	}
	nw, err := e.pop.Network()
	if err != nil {
		return nil, fmt.Errorf("experiments: restoring network: %w", err)
	}
	e.instrumentNetwork(nw)
	return nw, nil
}

// runScenario runs one event-engine scenario over a fresh overlay, with the
// environment's worker bound and observability plane attached.
func (e *Env) runScenario(scfg events.ScenarioConfig) (*events.ScenarioResult, error) {
	nw, err := e.newNetwork()
	if err != nil {
		return nil, err
	}
	scfg.Workers = e.Workers
	s, err := events.NewScenario(nw, scfg)
	if err != nil {
		return nil, err
	}
	s.Instrument(e.Obs, e.Windows)
	return s.Run()
}

// queriesPerSample is the measurement-flood volume of one sample point or
// window when the runner's config leaves it to the environment: a quarter
// of SimTrials, clamped to [lo, hi].
func (e *Env) queriesPerSample(lo, hi int) int {
	return min(max(e.P.SimTrials/4, lo), hi)
}

// knownItemSuccess floods queries known-item queries (an existing file
// name, held by at least one other peer) from random live origins and
// reports the hit fraction. Trial q draws everything — origin, target, flood
// randomness — from base.Derive(stream+q) and each worker floods through
// its own context (strategy.RunTrials), so the fraction is byte-identical at
// every worker count. Flood errors count as misses.
func (e *Env) knownItemSuccess(nw *gnet.Network, queries, ttl int, base *rng.Source, stream string) (float64, error) {
	alive := nw.Faults().LivenessSnapshot()
	t, err := strategy.RunTrials(e.workers(), 0, queries, base, stream, nw.NewFloodCtx,
		func(ctx *gnet.FloodCtx, _ int, r *rng.Source) (strategy.Outcome, error) {
			origin, name, ok := gnet.PickKnownItem(nw, alive, r)
			if !ok {
				return strategy.Outcome{}, nil
			}
			res, err := ctx.Flood(origin, name, ttl, r)
			return strategy.Outcome{Found: err == nil && res.TotalResults > 0}, nil
		})
	return t.Success(), err
}

// instrumentNetwork attaches the environment's observability plane to a
// network the environment (or a runner) has built. Safe with a nil Obs.
func (e *Env) instrumentNetwork(nw *gnet.Network) {
	if e.Obs != nil {
		nw.Instrument(e.Obs, e.FloodTraces)
	}
}

// instrumentFaults attaches fault-fire counters to a plane a runner built.
func (e *Env) instrumentFaults(p *faults.Plane) {
	if e.Obs != nil {
		p.Instrument(e.Obs)
	}
}

// ObjectTrace builds (once) the synthetic Gnutella population, runs the
// wire-level crawler against it and returns the observed object trace.
func (e *Env) ObjectTrace() (*trace.ObjectTrace, *crawler.Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.objTrace != nil {
		return e.objTrace, e.objStats, nil
	}
	nw, err := e.newNetwork()
	if err != nil {
		return nil, nil, err
	}
	ccfg := crawler.DefaultConfig()
	ccfg.Obs = e.Obs
	stop := e.Obs.StartPhase("env/crawl")
	tr, st, err := crawler.Crawl(nw, ccfg)
	stop()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: crawling: %w", err)
	}
	if e.Obs != nil {
		// Population gauges, set once from this single-threaded build path.
		e.Obs.Gauge("env_gnutella_peers").Set(int64(e.P.GnutellaPeers))
		e.Obs.Gauge("env_object_records").Set(int64(len(tr.Records)))
	}
	e.objTrace, e.objStats = tr, st
	return tr, st, nil
}

// SongTrace builds (once) the iTunes share population and crawls it.
func (e *Env) SongTrace() (*trace.SongTrace, *daap.CrawlStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.songTrace != nil {
		return e.songTrace, e.songStats, nil
	}
	cfg := daap.DefaultConfig(e.Seed)
	cfg.Shares = e.P.Shares
	cfg.UniqueSongs = e.P.UniqueSongs
	stop := e.Obs.StartPhase("env/song-trace")
	pop, err := daap.BuildPopulation(cfg)
	if err != nil {
		stop()
		return nil, nil, fmt.Errorf("experiments: building shares: %w", err)
	}
	tr, st, err := daap.Crawl(pop)
	stop()
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: crawling shares: %w", err)
	}
	if e.Obs != nil {
		e.Obs.Gauge("env_itunes_shares").Set(int64(e.P.Shares))
		e.Obs.Gauge("env_song_records").Set(int64(len(tr.Records)))
	}
	e.songTrace, e.songStats = tr, st
	return tr, st, nil
}

// FileTerms returns (once) the ranked file-term popularity list derived
// from the crawled object trace.
func (e *Env) FileTerms() ([]analysis.TermCount, error) {
	tr, _, err := e.ObjectTrace()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fileTerms == nil {
		e.fileTerms = analysis.RankedFileTerms(tr)
	}
	return e.fileTerms, nil
}

// Workload builds (once) the one-week query workload, with its vocabulary
// overlap wired to the crawled file terms (the Figure 7 coupling).
func (e *Env) Workload() (*querygen.Workload, error) {
	ranked, err := e.FileTerms()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.workload != nil {
		return e.workload, nil
	}
	cfg := querygen.DefaultConfig(e.Seed + 1)
	cfg.Queries = e.P.Queries
	cfg.Duration = e.P.TraceDuration
	cfg.FileTerms = termStrings(ranked)
	stop := e.Obs.StartPhase("env/workload")
	w, err := querygen.Generate(cfg)
	stop()
	if err != nil {
		return nil, fmt.Errorf("experiments: generating workload: %w", err)
	}
	if e.Obs != nil {
		e.Obs.Gauge("env_workload_queries").Set(int64(len(w.Trace.Records)))
	}
	e.workload = w
	return w, nil
}

func termStrings(ranked []analysis.TermCount) []string {
	out := make([]string, len(ranked))
	for i, tc := range ranked {
		out[i] = tc.Term
	}
	return out
}
