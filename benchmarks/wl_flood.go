package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"querycentric/internal/capacity"
	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/querygen"
	"querycentric/internal/rng"
	"querycentric/internal/zipf"
)

// floodQuery is one generated search: who asks, and for what.
type floodQuery struct {
	origin   int
	criteria string
}

// floodInst is flood_miss or flood_hit: a populated two-tier network and
// one query per peer, every peer the origin of exactly one of them so the
// leaf/ultrapeer mix of origins (which sets a flood's cost) never varies.
type floodInst struct {
	hit     bool
	nw      *gnet.Network
	fc      *gnet.FloodCtx
	queries []floodQuery

	knownTermFrac float64 // share of query-term occurrences the dictionary knows

	// Totals of the last timed pass, and the floods kept for the oracle.
	msgs, reached, hits, results int
	allocs, bytes                uint64
	kept                         map[int]*gnet.FloodResult
}

func setupFlood(b *bench, hit bool) (instance, error) {
	cat, nw, err := buildNetwork(b, b.sz.floodPeers, b.sz.floodObjects)
	if err != nil {
		return nil, err
	}
	f := &floodInst{hit: hit, nw: nw, fc: nw.NewFloodCtx()}
	var criteria []string
	if hit {
		criteria, err = hitCriteria(b, cat)
	} else {
		criteria, err = missCriteria(b, cat, nw.TermDict())
	}
	if err != nil {
		return nil, err
	}
	origins := rng.NewNamed(b.opts.seed, "bench/origins").Perm(len(nw.Peers))
	f.queries = make([]floodQuery, len(criteria))
	for i, c := range criteria {
		f.queries[i] = floodQuery{origin: origins[i], criteria: c}
	}
	_, _, f.knownTermFrac = f.termProbe()

	r := rng.NewNamed(b.opts.seed, "bench/warmup")
	for i := 0; i < b.sz.floodWarmup; i++ {
		q := f.queries[i%len(f.queries)]
		if _, err := f.fc.Flood(q.origin, q.criteria, b.sz.floodTTL, r); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// missCriteria draws one query per peer from querygen at the paper's
// measured query/file vocabulary mismatch (35% of the popular core and 25%
// of the tail are file terms; 1–3 AND-ed terms), with the file-term ranking
// taken from the catalog the network shares. Queries whose every term is a
// file term are answered somewhere — flood_hit's regime — so this workload
// keeps the rest of the stream: at least one term per query is unknown to
// the dictionary and every probe misses.
func missCriteria(b *bench, cat *catalog.Catalog, d *dict.Dict) ([]string, error) {
	want := len(cat.Libraries)
	cfg := querygen.DefaultConfig(b.opts.seed + 1)
	cfg.Queries = 2 * want
	cfg.FileTerms = rankedFileTerms(cat)
	cfg.CoreFileOverlap, cfg.TailFileOverlap = 0.35, 0.25
	cfg.MaxTermsPerQuery = 3
	var w *querygen.Workload
	err := b.tr.do("querygen.Generate", func() (err error) {
		w, err = querygen.Generate(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, want)
	var ids []dict.TermID
	for _, rec := range w.Trace.Records {
		var known bool
		if ids, known = d.Resolve(gnet.TokenizeQuery(rec.Query), ids[:0]); !known {
			out = append(out, rec.Query)
		}
		if len(out) == want {
			return out, nil
		}
	}
	return nil, fmt.Errorf("flood_miss: only %d of %d generated queries carry an unknown term, need %d", len(out), cfg.Queries, want)
}

// rankedFileTerms ranks the catalog's file-name terms by how many replicas
// carry them, most popular first (ties by term). A 1-in-8 systematic sample
// of the objects fixes the ranking querygen needs at an eighth of the
// tokenizing, which would otherwise rival the index build in set-up time.
func rankedFileTerms(cat *catalog.Catalog) []string {
	count := map[string]int{}
	for i := 0; i < len(cat.Objects); i += 8 {
		o := cat.Objects[i]
		for _, t := range gnet.TokenizeQuery(o.Name) {
			count[t] += o.Replicas
		}
	}
	terms := make([]string, 0, len(count))
	for t := range count {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if count[terms[i]] != count[terms[j]] {
			return count[terms[i]] > count[terms[j]]
		}
		return terms[i] < terms[j]
	})
	return terms
}

// hitCriteria draws one query per peer as 2–3 consecutive terms of a real
// file name, the object chosen Zipf(1.0) by replica rank; 80% of queries
// repeat one of a fixed core of term-sets. The core belongs to the dataset,
// not to the seed (Figure 6: the popular core is stable from one interval
// to the next); the seed picks who asks for which core entry and draws the
// other 20%. Objects held by more than 2% of the peers are left out: nobody
// floods for a file that is everywhere, and they alone would put hundreds
// of answering peers behind every query.
func hitCriteria(b *bench, cat *catalog.Catalog) ([]string, error) {
	maxReplicas := max(len(cat.Libraries)/50, 2)
	byReplicas := make([][]int, maxReplicas+1)
	for i, o := range cat.Objects {
		if o.Replicas <= maxReplicas {
			byReplicas[o.Replicas] = append(byReplicas[o.Replicas], i)
		}
	}
	var byRank []int // most replicated first, ties by object ID
	for n := maxReplicas; n >= 1; n-- {
		byRank = append(byRank, byReplicas[n]...)
	}
	pop, err := zipf.New(len(byRank), 1.0)
	if err != nil {
		return nil, err
	}
	draw := func(r *rng.Source) string {
		toks := gnet.TokenizeQuery(cat.Objects[byRank[pop.Sample(r)-1]].Name)
		k := min(2+r.Intn(2), len(toks))
		at := r.Intn(len(toks) - k + 1)
		return strings.Join(toks[at:at+k], " ")
	}
	coreRNG := rng.NewNamed(datasetSeed, "bench/hit-core")
	core := make([]string, b.sz.hitCore)
	for i := range core {
		core[i] = draw(coreRNG)
	}
	r := rng.NewNamed(b.opts.seed, "bench/hit-queries")
	out := make([]string, len(cat.Libraries))
	for i := range out {
		if r.Bool(0.8) {
			out[i] = core[r.Intn(len(core))]
		} else {
			out[i] = draw(r)
		}
	}
	return out, nil
}

// measure floods every query once, timing each call.
func (f *floodInst) measure(b *bench) (*sample, error) {
	s := &sample{ops: len(f.queries), latUS: make([]float64, 0, len(f.queries))}
	d := newDigest()
	f.msgs, f.reached, f.hits, f.results = 0, 0, 0, 0
	f.kept = map[int]*gnet.FloodResult{}
	r := rng.NewNamed(b.opts.seed, "bench/floods")
	ttl := b.sz.floodTTL
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, q := range f.queries {
		sp := b.tr.begin("gnet.Flood", i)
		t0 := time.Now()
		fr, err := f.fc.Flood(q.origin, q.criteria, ttl, r)
		lat := time.Since(t0)
		b.tr.end(sp)
		if err != nil {
			s.errs++
			continue
		}
		s.latUS = append(s.latUS, float64(lat)/1e3)
		f.msgs += fr.Messages
		f.reached += fr.PeersReached
		f.hits += len(fr.Hits)
		f.results += fr.TotalResults
		d.ints(fr.Messages, fr.PeersReached, len(fr.Hits), fr.TotalResults)
		if i%b.sz.oracleEvery == 0 {
			f.kept[i] = fr
		}
	}
	s.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	f.allocs, f.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	s.digest = d.sum()

	// Workload-character guards: refuse to measure the wrong thing.
	hitsPerQuery := float64(f.hits) / float64(s.ops)
	switch {
	case f.hit && hitsPerQuery <= 10:
		return nil, fmt.Errorf("flood_hit guard: %.2f answering peers per query, need > 10", hitsPerQuery)
	case !f.hit && hitsPerQuery >= 1:
		return nil, fmt.Errorf("flood_miss guard: %.2f answering peers per query, need < 1", hitsPerQuery)
	case !f.hit && f.knownTermFrac >= 0.6:
		return nil, fmt.Errorf("flood_miss guard: dictionary knows %.2f of the query terms, need < 0.6", f.knownTermFrac)
	}
	return s, nil
}

// verify re-runs the kept floods through the naive reference and holds
// the measured message count to the flooding model.
func (f *floodInst) verify(b *bench, s *sample) []string {
	var fails []string
	for i, fr := range f.kept {
		q := f.queries[i]
		if err := agreesWithNaive(f.nw, q.origin, q.criteria, b.sz.floodTTL, fr); err != nil {
			fails = append(fails, err.Error())
		}
	}
	sort.Strings(fails)
	if res := f.modelResidual(b); res > 0.25 {
		fails = append(fails, fmt.Sprintf("flooding model: measured messages per flood are %.0f%% off the degree/TTL prediction (limit 25%%)", 100*res))
	}
	return fails
}

// modelResidual is |measured − predicted| / predicted messages per flood.
func (f *floodInst) modelResidual(b *bench) float64 {
	want := modelMessages(f.nw, b.sz.floodTTL)
	got := float64(f.msgs) / float64(len(f.queries))
	if want == 0 {
		return 1
	}
	if got > want {
		return (got - want) / want
	}
	return (want - got) / want
}

// termProbe times TokenizeQuery and Dict.Resolve over the workload's
// queries and measures the query/file vocabulary mismatch.
func (f *floodInst) termProbe() (tokenizeNS, lookupNS, knownFrac float64) {
	d := f.nw.TermDict()
	toks := make([][]string, len(f.queries))
	t0 := time.Now()
	for i, q := range f.queries {
		toks[i] = gnet.TokenizeQuery(q.criteria)
	}
	tokenizeNS = float64(time.Since(t0)) / float64(len(f.queries))
	var ids []dict.TermID
	terms, known := 0, 0
	t0 = time.Now()
	for _, ts := range toks {
		ids, _ = d.Resolve(ts, ids[:0])
		for _, id := range ids {
			terms++
			if id != dict.NoTerm {
				known++
			}
		}
	}
	lookupNS = float64(time.Since(t0)) / float64(max(terms, 1))
	return tokenizeNS, lookupNS, float64(known) / float64(max(terms, 1))
}

func (f *floodInst) layers(b *bench, s *sample) error {
	agg := b.tr.aggregate()
	if err := setBuildLayers(b, agg, f.nw); err != nil {
		return err
	}
	b.set("querygen.generate_s", spanMeanS(agg, "querygen.Generate"))

	n := float64(s.ops)
	fl := agg["gnet.Flood"]
	b.set("gnet.flood.self_us", fl.Self.Seconds()*1e6/float64(fl.N))
	b.set("gnet.flood.p99_us", quantile(sorted(fl.durs), 0.99))
	b.set("gnet.flood.ns_per_msg", float64(s.wall)/float64(f.msgs))
	b.set("gnet.flood.msgs_per_query", float64(f.msgs)/n)
	b.set("gnet.flood.reached_per_query", float64(f.reached)/n)
	b.set("gnet.flood.hits_per_query", float64(f.hits)/n)
	b.set("gnet.flood.results_per_query", float64(f.results)/n)
	b.set("gnet.flood.allocs_per_query", float64(f.allocs)/n)
	b.set("gnet.flood.bytes_per_query", float64(f.bytes)/n)
	b.set("model.msgs_residual_frac", f.modelResidual(b))

	sp := b.tr.begin("probe.terms", -1)
	tokNS, lookNS, known := f.termProbe()
	b.tr.end(sp)
	b.set("gnet.tokenize.ns_per_query", tokNS)
	b.set("dict.lookup_ns", lookNS)
	b.set("dict.known_term_frac", known)

	sp = b.tr.begin("probe.match", -1)
	f.matchProbe(b)
	b.tr.end(sp)
	sp = b.tr.begin("probe.gmsg", -1)
	err := f.codecProbe(b)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	sp = b.tr.begin("probe.gates", -1)
	err = f.gateAblation(b)
	b.tr.end(sp)
	return err
}

// matchProbe replays Peer.MatchTokens over a seeded sample of (peer,
// query) pairs drawn from the peers each sampled query's flood reaches:
// the index probe plus hit assembly, outside the flood loop.
func (f *floodInst) matchProbe(b *bench) {
	const peersPerQuery = 40
	r := rng.NewNamed(b.opts.seed, "bench/match-pairs")
	type pair struct {
		peer *gnet.Peer
		toks []string
	}
	var pairs []pair
	for len(pairs) < b.sz.matchPairs {
		q := f.queries[r.Intn(len(f.queries))]
		reach := reachedPeers(f.nw, q.origin, b.sz.floodTTL)
		toks := gnet.TokenizeQuery(q.criteria)
		for k := 0; k < peersPerQuery && len(reach) > 0; k++ {
			pairs = append(pairs, pair{f.nw.Peers[reach[r.Intn(len(reach))]], toks})
		}
	}
	const rounds = 20
	var scratch []string
	hits := 0
	t0 := time.Now()
	for round := 0; round < rounds; round++ {
		for _, p := range pairs {
			var files []gnet.File
			files, scratch = p.peer.MatchTokens(p.toks, scratch)
			if len(files) > 0 {
				hits++
			}
		}
	}
	probes := float64(rounds * len(pairs))
	b.set("gnet.match.ns_per_probe", float64(time.Since(t0))/probes)
	b.set("gnet.match.hit_frac", float64(hits)/probes)
}

// reachedPeers lists the peers a plain flood from origin processes.
func reachedPeers(nw *gnet.Network, origin, ttl int) []int {
	seen := make([]bool, len(nw.Peers))
	seen[origin] = true
	frontier := append([]int(nil), nw.Peers[origin].Neighbors...)
	var out []int
	for left := ttl; len(frontier) > 0; left-- {
		var next []int
		for _, to := range frontier {
			if seen[to] {
				continue
			}
			seen[to] = true
			out = append(out, to)
			p := nw.Peers[to]
			if left > 1 && (p.Ultrapeer || nw.Config.UltrapeerFrac == 0) {
				next = append(next, p.Neighbors...)
			}
		}
		frontier = next
	}
	return out
}

// codecProbe times gmsg.Encode and gmsg.Decode over the workload's Query
// descriptors; a flood pays one of each per TTL ring.
func (f *floodInst) codecProbe(b *bench) error {
	msgs := make([]*gmsg.Message, len(f.queries))
	raws := make([][]byte, len(f.queries))
	for i, q := range f.queries {
		msgs[i] = &gmsg.Message{
			Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(uint64(i), b.opts.seed), Type: gmsg.TypeQuery, TTL: byte(b.sz.floodTTL)},
			Query:  &gmsg.Query{Criteria: q.criteria},
		}
		var err error
		if raws[i], err = gmsg.Encode(msgs[i]); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for i := 0; i < b.sz.codecOps; i++ {
		if _, err := gmsg.Encode(msgs[i%len(msgs)]); err != nil {
			return err
		}
	}
	b.set("gmsg.encode_ns", float64(time.Since(t0))/float64(b.sz.codecOps))
	t0 = time.Now()
	for i := 0; i < b.sz.codecOps; i++ {
		if _, _, err := gmsg.Decode(raws[i%len(raws)]); err != nil {
			return err
		}
	}
	b.set("gmsg.decode_ns", float64(time.Since(t0))/float64(b.sz.codecOps))
	return nil
}

// gateAblation measures what each optional gate costs a flood, from
// outside: a fixed sample of the workload's floods is replayed plain,
// then with one gate switched on through its public setter, then plain
// again, and so on down the gates. A gate's cost is the mean over the
// sample — less the 5% most extreme differences at either end, which are
// collector pauses — of each flood's gated time minus the mean of its two
// neighbouring plain times, so drift between replays cancels. It is a mean,
// not a median, because a gate's effect is skewed: QRP saves little on a
// leaf-origin flood and a lot on an ultrapeer-origin one.
func (f *floodInst) gateAblation(b *bench) error {
	n := min(b.sz.ablationFloods, len(f.queries))
	replay := func(fc *gnet.FloodCtx) ([]float64, error) {
		r := rng.NewNamed(b.opts.seed, "bench/ablation")
		us := make([]float64, n)
		for i, q := range f.queries[:n] {
			t0 := time.Now()
			if _, err := fc.Flood(q.origin, q.criteria, b.sz.floodTTL, r); err != nil {
				return nil, err
			}
			us[i] = float64(time.Since(t0)) / 1e3
		}
		return us, nil
	}
	nw := f.nw
	capPlane, err := capacity.New(capacity.Config{Seed: b.opts.seed, ServiceCostMs: 4000, Policy: capacity.Unbounded}, len(nw.Peers))
	if err != nil {
		return err
	}
	pathCtx := nw.NewFloodCtx()
	pathCtx.SetPathCapture(true)
	nop := func() error { return nil }
	gates := []struct {
		metric  string
		fc      *gnet.FloodCtx
		on, off func() error
	}{
		{"gnet.flood.qrp_delta_us", f.fc, func() error { return nw.EnableQRP(16) }, func() error { nw.DisableQRP(); return nil }},
		{"gnet.flood.loss_delta_us", f.fc,
			func() error {
				nw.SetFaults(faults.New(faults.Config{Seed: b.opts.seed, MessageLoss: 0.05}))
				return nil
			},
			func() error { nw.SetFaults(nil); return nil }},
		{"gnet.flood.capacity_delta_us", f.fc,
			func() error { nw.SetCapacity(capPlane); return nil },
			func() error { nw.SetCapacity(nil); return nil }},
		{"gnet.flood.pathcapture_delta_us", pathCtx, nop, nop},
		{"gnet.flood.obs_delta_us", f.fc,
			func() error { nw.Instrument(obs.NewRegistry(), nil); return nil },
			func() error { nw.Instrument(nil, nil); return nil }},
	}
	before, err := replay(f.fc)
	if err != nil {
		return err
	}
	for _, g := range gates {
		if err := g.on(); err != nil {
			return err
		}
		gated, err := replay(g.fc)
		if err != nil {
			return err
		}
		if err := g.off(); err != nil {
			return err
		}
		after, err := replay(f.fc)
		if err != nil {
			return err
		}
		delta := make([]float64, n)
		for i := range delta {
			delta[i] = gated[i] - (before[i]+after[i])/2
		}
		b.set(g.metric, trimmedMean(delta, 0.05))
		before = after
	}
	return nil
}

func (f *floodInst) reset(b *bench) error { return nil }
func (f *floodInst) close() error         { return nil }
