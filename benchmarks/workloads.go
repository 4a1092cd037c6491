package main

import (
	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
)

// sizes are the op counts and population sizes of every workload. The
// shapes (what is built, what is called, in which proportions) are frozen;
// the counts are sized so one repetition's timed work takes 1–2 s on a
// 2-CPU box and a whole run, set-ups included, stays under ~20 s.
type sizes struct {
	minReps    int // repetitions of an end-to-end run, at least
	tracedReps int // repetitions of a traced run; each times the work untraced, then traced

	// flood_miss, flood_hit, and the network recipe snapshot_cold persists.
	floodPeers, floodObjects int
	floodTTL                 int
	floodWarmup              int // floods discarded before timing
	oracleEvery              int // every n-th flood is re-run by the naive reference
	hitCore                  int // fixed popular term-sets of flood_hit
	ablationFloods           int // floods replayed per gate ablation
	matchPairs               int // (peer, query) pairs replayed through MatchTokens
	codecOps                 int // gmsg Encode/Decode probe iterations

	// overload_scenario.
	scenPeers, scenObjects int
	scenDuration           int64
	scenQueriesPerWindow   int
	probeOps               int // Admit / MessageLossAt probe iterations

	// five_arm: Params.GnutellaPeers (the population is 3x that) and
	// Params.SimTrials (each arm measures 2x that).
	fivePeers, fiveTrials int
	mutationOps           int // AddFile / rewire probe iterations

	// graph_fig8: Params.SimNodes and Params.SimTrials.
	figNodes, figTrials int
	coverageSamples     int

	// snapshot_cold.
	snapCycles int
}

var fullSizes = sizes{
	minReps: 3, tracedReps: 2,
	floodPeers: 4000, floodObjects: 324000, floodTTL: 4, floodWarmup: 500, oracleEvery: 200,
	hitCore: 200, ablationFloods: 500, matchPairs: 2000, codecOps: 200000,
	scenPeers: 2000, scenObjects: 162000, scenDuration: 4 * 3600, scenQueriesPerWindow: 500, probeOps: 1000000,
	fivePeers: 1000, fiveTrials: 15000, mutationOps: 2000,
	figNodes: 10000, figTrials: 360, coverageSamples: 200,
	snapCycles: 12,
}

// smokeSizes keep every shape at hundreds of peers and hundreds of ops:
// the self-test runs all six workloads, traced and untraced, in seconds.
var smokeSizes = sizes{
	minReps: 1, tracedReps: 1,
	floodPeers: 800, floodObjects: 24000, floodTTL: 4, floodWarmup: 20, oracleEvery: 25,
	hitCore: 20, ablationFloods: 40, matchPairs: 100, codecOps: 500,
	scenPeers: 200, scenObjects: 6000, scenDuration: 2400, scenQueriesPerWindow: 40, probeOps: 2000,
	fivePeers: 120, fiveTrials: 150, mutationOps: 50,
	figNodes: 3000, figTrials: 40, coverageSamples: 20,
	snapCycles: 2,
}

// datasetSeed fixes the content population and overlay of the catalog
// workloads (flood_miss, flood_hit, overload_scenario, snapshot_cold): the
// dataset is the same in every run, and --seed varies what is asked of it —
// queries, origins, flood GUIDs, churn, bursts, loss and shedding rolls.
// A population drawn per seed made the floods measure the draw instead of
// the code: whether a ubiquitous term's ID happens to share a membership-
// filter slot with NoTerm moves flood_miss 2–4x on one seed in ten (README,
// "A cliff this benchmark found").
const datasetSeed = 42

// catalogConfig is the content-population recipe of the experiments
// (experiments.Env.catalogConfig): the paper's replica-count power law
// (alpha 2.45), 8% name variants, 5% non-specific names.
func catalogConfig(peers, objects int) catalog.Config {
	return catalog.Config{
		Seed: datasetSeed, Peers: peers, UniqueObjects: objects,
		ReplicaAlpha: 2.45, VariantProb: 0.08, NonSpecificPeerFrac: 0.05,
	}
}

// networkConfig is the two-tier overlay with 10% firewalled peers.
func networkConfig() gnet.Config {
	cfg := gnet.DefaultConfig(datasetSeed)
	cfg.FirewalledFrac = 0.1
	return cfg
}

// buildNetwork runs the in-heap construction pipeline — catalog, network
// with its shared dictionary, eager posting indexes — one span per layer.
func buildNetwork(b *bench, peers, objects int) (*catalog.Catalog, *gnet.Network, error) {
	var cat *catalog.Catalog
	var nw *gnet.Network
	err := b.tr.do("catalog.Build", func() (err error) {
		cat, err = catalog.BuildWorkers(catalogConfig(peers, objects), b.workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = b.tr.do("gnet.NewFromCatalog", func() (err error) {
		nw, err = gnet.NewFromCatalogWorkers(networkConfig(), cat, b.workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = b.tr.do("gnet.BuildIndexes", func() error { return nw.BuildIndexes(b.workers) })
	return cat, nw, err
}

// setBuildLayers reports the construction spans and the structural size
// of the dictionary and posting indexes.
func setBuildLayers(b *bench, agg map[string]*spanStats, nw *gnet.Network) error {
	b.set("catalog.build_s", spanMeanS(agg, "catalog.Build"))
	b.set("gnet.network_build_s", spanMeanS(agg, "gnet.NewFromCatalog"))
	b.set("gnet.index_build_s", spanMeanS(agg, "gnet.BuildIndexes"))
	st, err := nw.IndexStats()
	if err != nil {
		return err
	}
	dictBytes := nw.TermDict().HeapBytes()
	b.set("dict.terms", float64(st.DictTerms))
	b.set("dict.heap_mib", mib(dictBytes))
	b.set("gnet.index_heap_mib", mib(st.HeapBytes-dictBytes))
	b.set("gnet.postings", float64(st.Postings))
	return nil
}

func mib(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// spanMeanS is the mean duration in seconds of the spans called name.
func spanMeanS(agg map[string]*spanStats, name string) float64 {
	st := agg[name]
	if st == nil || st.N == 0 {
		return 0
	}
	return st.Total.Seconds() / float64(st.N)
}
