package querycentric

import (
	"querycentric/internal/analysis"
	"querycentric/internal/crawler"
	"querycentric/internal/daap"
	"querycentric/internal/experiments"
	"querycentric/internal/faults"
	"querycentric/internal/querygen"
	"querycentric/internal/snapshot"
	"querycentric/internal/trace"
)

// FaultConfig holds the injectable substrate fault probabilities; the zero
// value disables every fault (see internal/faults).
type FaultConfig = faults.Config

// Trace container types (tab-separated text on disk; see internal/trace
// for the format). Each writes itself with its Write method.
type (
	ObjectTrace = trace.ObjectTrace
	SongTrace   = trace.SongTrace
	QueryTrace  = trace.QueryTrace
)

// Trace IO.
var (
	ReadObjectTrace = trace.ReadObjectTrace
	ReadSongTrace   = trace.ReadSongTrace
	ReadQueryTrace  = trace.ReadQueryTrace
)

// CrawlStats is the Gnutella crawl funnel.
type CrawlStats = crawler.Stats

// ShareCrawlStats is the iTunes share crawl funnel.
type ShareCrawlStats = daap.CrawlStats

// GnutellaCrawlConfig sizes a synthetic Gnutella crawl.
type GnutellaCrawlConfig struct {
	Seed           uint64
	Peers          int
	UniqueObjects  int
	FirewalledFrac float64
	// Faults configures injected substrate faults (dial timeouts,
	// handshake stalls, resets, message loss, peer departures). The zero
	// value injects nothing and leaves the crawl byte-identical to the
	// fault-free substrate.
	Faults FaultConfig
	// MaxAttempts bounds the crawler's per-peer attempt budget for
	// transient failures (0 → the crawler default of 3).
	MaxAttempts int
	// Obs, when non-nil, receives the crawl funnel, flood counters and
	// fault-fire counts. Attaching a registry never changes the trace.
	Obs *Registry
	// FloodTraces, when non-nil alongside Obs, records a bounded
	// deterministic sample of per-flood hop traces.
	FloodTraces *FloodTraces
	// SnapshotLoad, when non-empty, restores the network from this
	// snapshot file through a read-only memory mapping instead of building
	// catalog + network (Peers, UniqueObjects and FirewalledFrac are then
	// ignored — the snapshot carries the population). SnapshotSave, when
	// non-empty, persists the network to this path before the crawl runs:
	// a fresh population is built shard by shard straight into the file and
	// mapped back, a restored one is re-saved.
	SnapshotLoad string
	SnapshotSave string
}

// GnutellaCrawl builds a calibrated content population, stands up the
// in-process Gnutella network, runs the Cruiser-like crawler against it
// over the real wire format, and returns the observed object trace.
func GnutellaCrawl(cfg GnutellaCrawlConfig) (*ObjectTrace, *CrawlStats, error) {
	bcfg := experiments.Params{
		GnutellaPeers: cfg.Peers, UniqueObjects: cfg.UniqueObjects, FirewalledFrac: cfg.FirewalledFrac,
	}.Population(cfg.Seed)
	nw, err := snapshot.OpenPopulation(cfg.SnapshotLoad, cfg.SnapshotSave, bcfg, nil)
	if err != nil {
		return nil, nil, err
	}
	defer nw.Close() // the trace holds decoded copies, never views of a mapping
	if cfg.Obs != nil {
		nw.Instrument(cfg.Obs, cfg.FloodTraces)
	}
	if cfg.Faults.Enabled() {
		plane := faults.New(cfg.Faults)
		plane.Instrument(cfg.Obs)
		nw.SetFaults(plane)
	}
	ccfg := crawler.DefaultConfig()
	ccfg.Seed = cfg.Seed
	ccfg.Obs = cfg.Obs
	if cfg.MaxAttempts > 0 {
		ccfg.MaxAttempts = cfg.MaxAttempts
	}
	return crawler.Crawl(nw, ccfg)
}

// ITunesCrawlConfig sizes a synthetic iTunes share crawl.
type ITunesCrawlConfig struct {
	Seed        uint64
	Shares      int
	UniqueSongs int
}

// ITunesCrawl builds the share population (with the paper's
// password/busy/firewall funnel), crawls it over HTTP+DMAP, and returns
// the observed song trace.
func ITunesCrawl(cfg ITunesCrawlConfig) (*SongTrace, *ShareCrawlStats, error) {
	dcfg := daap.DefaultConfig(cfg.Seed)
	if cfg.Shares > 0 {
		dcfg.Shares = cfg.Shares
	}
	if cfg.UniqueSongs > 0 {
		dcfg.UniqueSongs = cfg.UniqueSongs
	}
	pop, err := daap.BuildPopulation(dcfg)
	if err != nil {
		return nil, nil, err
	}
	return daap.Crawl(pop)
}

// QueryWorkloadConfig sizes a synthetic query workload.
type QueryWorkloadConfig struct {
	Seed     uint64
	Queries  int
	Duration int64 // seconds; 0 ⇒ one week
	// FileTerms, when non-nil, is the ranked file-term vocabulary the
	// workload should (weakly) overlap — normally RankedFileTerms of a
	// crawl (the Figure 7 coupling).
	FileTerms []string
}

// QueryWorkload generates the temporal query trace: stable popular core,
// transient bursts, Zipf tail, low file-term overlap.
func QueryWorkload(cfg QueryWorkloadConfig) (*QueryTrace, error) {
	qcfg := querygen.DefaultConfig(cfg.Seed)
	if cfg.Queries > 0 {
		qcfg.Queries = cfg.Queries
	}
	if cfg.Duration > 0 {
		qcfg.Duration = cfg.Duration
	}
	qcfg.FileTerms = cfg.FileTerms
	w, err := querygen.Generate(qcfg)
	if err != nil {
		return nil, err
	}
	return w.Trace, nil
}

// RankedFileTermStrings returns the file terms of an object trace ranked
// by popularity (most popular first).
func RankedFileTermStrings(tr *ObjectTrace) []string {
	ranked := analysis.RankedFileTerms(tr)
	out := make([]string, len(ranked))
	for i, tc := range ranked {
		out[i] = tc.Term
	}
	return out
}
