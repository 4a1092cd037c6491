package experiments

import (
	"fmt"

	"querycentric/internal/adaptive"
	"querycentric/internal/catalog"
	"querycentric/internal/chord"
	"querycentric/internal/gnet"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/shortcuts"
	"querycentric/internal/strategy"
	"querycentric/internal/zipf"
)

// QueryCentricArm is one strategy's measured row in the head-to-head.
type QueryCentricArm struct {
	Arm          string
	Success      float64
	MeanMessages float64
	MeanHops     float64
	ShortcutHits float64
	Rewires      int
	Replicas     int
}

// QueryCentricResult is the five-arm head-to-head under the paper's Zipf
// mismatch: static flooding, QRP, interest shortcuts, the adaptive overlay
// and a Chord baseline, all observing the identical (origin, object)
// query sequence.
type QueryCentricResult struct {
	Peers   int
	Objects int
	Warmup  int // adaptation warmup queries (adaptive and shortcuts arms)
	Queries int // measured queries per arm

	Arms []QueryCentricArm

	// AdaptiveGain is adaptive success over static-flood success — the
	// paper's recovered-success headline (CI gates on ≥ 2).
	AdaptiveGain float64
}

// Table implements Result.
func (r *QueryCentricResult) Table() [][]string {
	rows := [][]string{{"arm", "success", "msgs_per_query", "mean_hops", "adapted_hits", "rewires", "replicas"}}
	for _, a := range r.Arms {
		rows = append(rows, []string{
			a.Arm,
			fmt.Sprintf("%.4f", a.Success),
			fmt.Sprintf("%.2f", a.MeanMessages),
			fmt.Sprintf("%.2f", a.MeanHops),
			fmt.Sprintf("%.4f", a.ShortcutHits),
			fmt.Sprintf("%d", a.Rewires),
			fmt.Sprintf("%d", a.Replicas),
		})
	}
	rows = append(rows, []string{"adaptive_gain", fmt.Sprintf("%.2f", r.AdaptiveGain), "", "", "", "", ""})
	return rows
}

// Arm returns the named arm, or nil.
func (r *QueryCentricResult) Arm(name string) *QueryCentricArm {
	for i := range r.Arms {
		if r.Arms[i].Arm == name {
			return &r.Arms[i]
		}
	}
	return nil
}

// armFromStats converts a unified strategy.Stats into a table arm.
func armFromStats(name string, st *strategy.Stats) QueryCentricArm {
	return QueryCentricArm{
		Arm:          name,
		Success:      st.Success,
		MeanMessages: st.MeanMessages,
		MeanHops:     st.MeanHops,
		ShortcutHits: st.ShortcutHits,
		Rewires:      st.Rewires,
		Replicas:     st.Replicas,
	}
}

// qcPopulation is the experiment's mismatched population: object query
// rank and replica count are anti-correlated (the hottest queries target
// near-singletons, the fat replica mass sits on the query tail) — the
// paper's measured file/query mismatch in its sharpest form.
type qcPopulation struct {
	peers int
	objs  []adaptive.Object
	pick  func(r *rng.Source) int
}

// buildNet constructs a fresh wire-level network over the population, born
// indexed, on the flat degree-4 topology every arm runs over.
func (p *qcPopulation) buildNet(e *Env) (*gnet.Network, error) {
	libs := make([][]string, p.peers)
	for _, o := range p.objs {
		for _, h := range o.Holders {
			libs[h] = append(libs[h], o.Name)
		}
	}
	cfg := gnet.Config{Seed: e.Seed + 121, FlatDegree: 4}
	nw, err := gnet.NewFromCatalogWorkers(cfg, &catalog.Catalog{Libraries: libs}, 0)
	if err != nil {
		return nil, err
	}
	e.instrumentNetwork(nw)
	return nw, nil
}

// qcBuildPopulation sizes the population from the environment: a flat
// overlay several times the Gnutella peer parameter, 60 objects under a
// Zipf(1.2) query distribution, and replica counts growing quadratically
// with query rank (reversed popularity).
func qcBuildPopulation(e *Env) (*qcPopulation, error) {
	peers := max(3*e.P.GnutellaPeers, 360)
	const m = 60
	qd, err := zipf.New(m, 1.2)
	if err != nil {
		return nil, err
	}
	place := rng.NewNamed(e.Seed+120, "experiments/query-centric/place")
	maxRep := max(peers/18, 8)
	objs := make([]adaptive.Object, m)
	for i := range objs {
		rep := 1 + i*i*maxRep/((m-1)*(m-1))
		objs[i] = adaptive.Object{
			Name: fmt.Sprintf("object%04d studio master", i),
			Size: 1 << 20,
		}
		for _, h := range place.SampleInts(peers, rep) {
			objs[i].Holders = append(objs[i].Holders, int32(h))
		}
	}
	return &qcPopulation{
		peers: peers,
		objs:  objs,
		pick:  func(r *rng.Source) int { return qd.Sample(r) - 1 },
	}, nil
}

// QueryCentricConfig exposes the adaptation knobs qc-sim surfaces as
// flags. A zero AdaptInterval or empty ReplScheme falls back to the
// adaptive package default; the budgets are taken verbatim (zero turns
// that mechanism off). The scheme must come from adaptive.Schemes().
type QueryCentricConfig struct {
	// AdaptInterval is the number of queries per adaptation round (and the
	// warmup batch size).
	AdaptInterval int
	// RewireBudget caps edge swaps per adaptation round (0 disables
	// rewiring).
	RewireBudget int
	// ReplicateBudget caps replica installs per adaptation round (0
	// disables replication).
	ReplicateBudget int
	// ReplScheme selects where replicas land (owner|path|random|sqrt).
	ReplScheme adaptive.Scheme
}

// DefaultQueryCentricConfig mirrors adaptive.DefaultConfig's knobs.
func DefaultQueryCentricConfig() QueryCentricConfig {
	d := adaptive.DefaultConfig(0)
	return QueryCentricConfig{
		AdaptInterval:   d.AdaptInterval,
		RewireBudget:    d.RewireBudget,
		ReplicateBudget: d.ReplicateBudget,
		ReplScheme:      d.ReplScheme,
	}
}

// QueryCentricWith is the repository's constructive deliverable: under the
// paper's query/file mismatch, a static TTL-3 flood mostly misses (the
// hot objects are near-singletons beyond its reach) and QRP only trims
// messages; the adaptive overlay — query-stream-driven rewiring plus
// hot-object replication — recovers the lost success at equal or lower
// message cost, while Chord finds everything but answers none of the
// paper's keyword-search objections. All five arms replay the identical
// workload under the unified strategy derivation; cfg sets the adaptation
// knobs.
func QueryCentricWith(e *Env, cfg QueryCentricConfig) (*QueryCentricResult, error) {
	pop, err := qcBuildPopulation(e)
	if err != nil {
		return nil, err
	}
	const ttl = 3
	acfg := adaptive.DefaultConfig(e.Seed + 122)
	acfg.TTL = ttl
	acfg.Workers = e.Workers
	if cfg.AdaptInterval > 0 {
		acfg.AdaptInterval = cfg.AdaptInterval
	}
	acfg.RewireBudget = cfg.RewireBudget
	acfg.ReplicateBudget = cfg.ReplicateBudget
	if cfg.ReplScheme != "" {
		acfg.ReplScheme = cfg.ReplScheme
	}
	warmup := 8 * acfg.AdaptInterval
	measured := max(2*e.P.SimTrials, 300)
	res := &QueryCentricResult{Objects: len(pop.objs), Peers: pop.peers, Warmup: warmup, Queries: measured}
	wseed, mseed := e.Seed+124, e.Seed+125

	// Arms 1–3 share one build: the static and QRP arms only flood it (QRP
	// attaches its route tables after the static arm ends), and the
	// shortcuts arm reads only its topology.
	nw, err := pop.buildNet(e)
	if err != nil {
		return nil, err
	}

	// Arm 1: static flood — an inert adaptive system (AdaptInterval 0), so
	// accounting is identical to the adaptive arm's flood path.
	static, err := adaptive.New(nw, pop.objs,
		adaptive.Config{Seed: e.Seed + 122, TTL: ttl, Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	stStatic, err := static.RunWorkload(measured, pop.pick, mseed)
	if err != nil {
		return nil, err
	}
	res.Arms = append(res.Arms, armFromStats("static-flood", stStatic))

	// Arm 2: QRP — same floods over per-peer route tables. Routing on file
	// terms trims propagation but cannot move success.
	if err := nw.EnableQRP(16); err != nil {
		return nil, err
	}
	qrpSys, err := adaptive.New(nw, pop.objs,
		adaptive.Config{Seed: e.Seed + 122, TTL: ttl, Workers: e.Workers})
	if err != nil {
		return nil, err
	}
	stQRP, err := qrpSys.RunWorkload(measured, pop.pick, mseed)
	if err != nil {
		return nil, err
	}
	res.Arms = append(res.Arms, armFromStats("qrp", stQRP))

	// Arm 3: interest shortcuts over the projected overlay (graph +
	// abstract placement; no wire-level messages).
	g, err := overlay.NewGraph(pop.peers)
	if err != nil {
		return nil, err
	}
	for a, p := range nw.Peers {
		for _, b := range p.Neighbors {
			if a < b {
				if err := g.AddEdge(a, b); err != nil {
					return nil, err
				}
			}
		}
	}
	holders := make([][]int32, len(pop.objs))
	for i, o := range pop.objs {
		holders[i] = append([]int32(nil), o.Holders...)
	}
	scSys, err := shortcuts.New(g, &search.Placement{Nodes: pop.peers, Holders: holders},
		shortcuts.Config{ListSize: 10, TTL: ttl})
	if err != nil {
		return nil, err
	}
	if _, err := scSys.RunWorkload(warmup, pop.pick, wseed); err != nil {
		return nil, err
	}
	stSC, err := scSys.RunWorkload(measured, pop.pick, mseed)
	if err != nil {
		return nil, err
	}
	res.Arms = append(res.Arms, armFromStats("shortcuts", stSC))

	// Arm 4: the adaptive overlay, on its own build because it mutates
	// topology and libraries. The warmup adapts between batches exactly as
	// the measured workload does; adapted state carries over into it.
	nwAdapt, err := pop.buildNet(e)
	if err != nil {
		return nil, err
	}
	adaptSys, err := adaptive.New(nwAdapt, pop.objs, acfg)
	if err != nil {
		return nil, err
	}
	adaptSys.Instrument(e.Obs)
	if _, err := adaptSys.RunWorkload(warmup, pop.pick, wseed); err != nil {
		return nil, err
	}
	stAdapt, err := adaptSys.RunWorkload(measured, pop.pick, mseed)
	if err != nil {
		return nil, err
	}
	res.Arms = append(res.Arms, armFromStats("adaptive", stAdapt))

	// Arm 5: Chord — every lookup succeeds in O(log n) hops, but a DHT
	// resolves exact keys, not the paper's keyword queries; it brackets the
	// cost axis rather than competing on the success one.
	ring, err := chord.New(pop.peers, e.Seed+126)
	if err != nil {
		return nil, err
	}
	mBase := strategy.WorkloadStream(mseed)
	var chordTally strategy.Tally
	for i := 0; i < measured; i++ {
		r := strategy.QueryStream(mBase, i)
		origin := r.Intn(pop.peers)
		obj := pop.pick(r)
		_, hops, err := ring.Lookup(chord.HashKey(pop.objs[obj].Name), ring.NodeByIndex(origin))
		if err != nil {
			return nil, err
		}
		chordTally.Add(strategy.Outcome{Found: true, Hops: hops, Messages: hops})
	}
	res.Arms = append(res.Arms, armFromStats("chord", chordTally.Stats()))

	if stStatic.Success > 0 {
		res.AdaptiveGain = stAdapt.Success / stStatic.Success
	}
	return res, nil
}
