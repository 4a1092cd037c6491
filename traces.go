package querycentric

import (
	"io"

	"querycentric/internal/analysis"
	"querycentric/internal/catalog"
	"querycentric/internal/crawler"
	"querycentric/internal/daap"
	"querycentric/internal/dict"
	"querycentric/internal/experiments"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/querygen"
	"querycentric/internal/snapshot"
	"querycentric/internal/trace"
)

// Wire-level Gnutella substrate: the in-process network the crawler and
// flood experiments run against (see internal/gnet).
type (
	Network       = gnet.Network
	NetworkConfig = gnet.Config
	Addr          = gnet.Addr
	FloodCtx      = gnet.FloodCtx
	FloodResult   = gnet.FloodResult
	FloodHit      = gnet.Hit
)

// Wire-substrate constructors.
var (
	DefaultNetworkConfig  = gnet.DefaultConfig
	NewNetworkFromCatalog = gnet.NewFromCatalog
)

// Network snapshot persistence (see internal/snapshot): a fully built
// network — topology, libraries, interned dictionary, compressed posting
// indexes — round-trips through a versioned, SHA-256-fingerprinted flat
// file. Loading is an order of magnitude faster than rebuilding, and a
// restored network behaves byte-identically to the one saved.
//
// LoadNetworkSnapshotMapped memory-maps a snapshot read-only and serves
// file names and posting arenas zero-copy from the mapping (the network
// reports Borrowed and Close releases the mapping).
var (
	SaveNetworkSnapshot       = snapshot.Save
	LoadNetworkSnapshot       = snapshot.Load
	LoadNetworkSnapshotMapped = snapshot.LoadMapped
)

// Shard-and-spill snapshot construction (see internal/snapshot): build a
// population of any size directly into a snapshot file while holding only
// one bounded shard of peers (plus the shared dictionary) in memory. The
// output is byte-identical to SaveNetworkSnapshot over the equivalent
// in-heap build.
type (
	SnapshotBuildConfig = snapshot.BuildConfig
	SnapshotBuildStats  = snapshot.BuildStats
)

// BuildShardedSnapshot runs a shard-and-spill build.
var BuildShardedSnapshot = snapshot.BuildSharded

// DefaultSnapshotShardSize is the peers-per-shard bound a zero
// SnapshotBuildConfig.ShardSize resolves to.
const DefaultSnapshotShardSize = snapshot.DefaultShardSize

// SnapshotVersion is the snapshot format revision this build reads and
// writes.
const SnapshotVersion = snapshot.Version

// Snapshot failure sentinels (match with errors.Is): every way a snapshot
// file can be unusable is a distinct, loud error.
var (
	ErrSnapshotFormat      = snapshot.ErrFormat
	ErrSnapshotVersion     = snapshot.ErrVersion
	ErrSnapshotTruncated   = snapshot.ErrTruncated
	ErrSnapshotCorrupt     = snapshot.ErrCorrupt
	ErrSnapshotFingerprint = snapshot.ErrFingerprint
)

// Content catalog: the calibrated synthetic population a network is built
// from (see internal/catalog).
type (
	Catalog       = catalog.Catalog
	CatalogConfig = catalog.Config
)

// BuildCatalog builds a calibrated content catalog.
var BuildCatalog = catalog.Build

// Overlay maintenance: ping/pong failure detection and host-cache repair
// (see internal/gnet's Maintainer).
type (
	Maintainer   = gnet.Maintainer
	RepairConfig = gnet.RepairConfig
	RepairStats  = gnet.RepairStats
	HostCache    = gnet.HostCache
)

// Maintenance constructors and knobs.
var (
	NewMaintainer       = gnet.NewMaintainer
	DefaultRepairConfig = gnet.DefaultRepairConfig
	NewHostCache        = gnet.NewHostCache
)

// DefaultHostCacheSize bounds a peer's candidate-address pool.
const DefaultHostCacheSize = gnet.DefaultHostCacheSize

// Term dictionary: the global interning table behind the compact
// integer-ID posting indexes (see internal/dict).
type (
	Dictionary = dict.Dict
	TermID     = dict.TermID
)

// NoTerm is the sentinel TermID for tokens absent from the dictionary.
const NoTerm = dict.NoTerm

// FaultConfig holds the injectable substrate fault probabilities; the zero
// value disables every fault (see internal/faults).
type FaultConfig = faults.Config

// FaultPlane is a deterministic fault-injection engine attachable to the
// wire substrate.
type FaultPlane = faults.Plane

// NewFaultPlane builds a fault plane for a configuration.
var NewFaultPlane = faults.New

// Trace record and container types (tab-separated text on disk; see
// internal/trace for the format).
type (
	ObjectRecord = trace.ObjectRecord
	ObjectTrace  = trace.ObjectTrace
	SongRecord   = trace.SongRecord
	SongTrace    = trace.SongTrace
	QueryRecord  = trace.QueryRecord
	QueryTrace   = trace.QueryTrace
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

// WriteTrace writes any of the three trace kinds to w.
func WriteTrace(w io.Writer, t interface{ Write(io.Writer) error }) error {
	return t.Write(w)
}
