package main

import (
	"fmt"
	"time"

	qc "querycentric"
	"querycentric/internal/adaptive"
	"querycentric/internal/chord"
	"querycentric/internal/events"
	"querycentric/internal/gnet"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/shortcuts"
	"querycentric/internal/strategy"
	"querycentric/internal/zipf"
)

// fiveArmInst is five_arm: the facade's five-arm head-to-head (static
// flood, QRP, interest shortcuts, adaptive overlay, Chord) under the
// anti-correlated Zipf mismatch. The end-to-end run is one facade call; the
// traced run rebuilds the same arms from the internal packages so each
// gets a span, and must reproduce the facade's numbers exactly.
type fiveArmInst struct {
	env *qc.Env
	res *qc.QueryCentricResult
	// objs and nw are one copy of the substrate every arm starts from — the
	// population and a populated arm network. The facade call builds its
	// own; this copy is what heap_after_setup_mib weighs and what the
	// mutation probes scribble on.
	objs []adaptive.Object
	nw   *gnet.Network
}

func fiveArmEnv(b *bench, trials int) *qc.Env {
	env := qc.NewEnv(qc.ScaleTiny, b.opts.seed)
	env.Workers = b.workers
	env.P.GnutellaPeers = b.sz.fivePeers
	env.P.SimTrials = trials
	return env
}

// setupFiveArm builds one copy of the arms' substrate and warms up with a
// discarded head-to-head at a quarter of the trial count.
func setupFiveArm(b *bench) (instance, error) {
	f := &fiveArmInst{env: fiveArmEnv(b, b.sz.fiveTrials)}
	peers, objs, _, err := fiveArmPopulation(f.env)
	if err != nil {
		return nil, err
	}
	f.objs = objs
	if f.nw, err = fiveArmNetwork(f.env.Seed, peers, objs); err != nil {
		return nil, err
	}
	if _, err := qc.QueryCentricWith(fiveArmEnv(b, b.sz.fiveTrials/4), qc.DefaultQueryCentricConfig()); err != nil {
		return nil, err
	}
	return f, nil
}

// fiveArmPopulation is the head-to-head's mismatched population: 60
// objects queried Zipf(1.2), replica counts growing quadratically with
// query rank, so the hottest queries chase near-singletons.
func fiveArmPopulation(e *qc.Env) (peers int, objs []adaptive.Object, pick func(r *rng.Source) int, err error) {
	peers = max(3*e.P.GnutellaPeers, 360)
	const m = 60
	qd, err := zipf.New(m, 1.2)
	if err != nil {
		return 0, nil, nil, err
	}
	place := rng.NewNamed(e.Seed+120, "experiments/query-centric/place")
	maxRep := max(peers/18, 8)
	objs = make([]adaptive.Object, m)
	for i := range objs {
		rep := 1 + i*i*maxRep/((m-1)*(m-1))
		objs[i] = adaptive.Object{Name: fmt.Sprintf("object%04d studio master", i), Size: 1 << 20}
		for _, h := range place.SampleInts(peers, rep) {
			objs[i].Holders = append(objs[i].Holders, int32(h))
		}
	}
	return peers, objs, func(r *rng.Source) int { return qd.Sample(r) - 1 }, nil
}

func (f *fiveArmInst) measure(b *bench) (*sample, error) {
	start := time.Now()
	var err error
	if b.tr.on {
		sp := b.tr.begin("five_arm", -1)
		f.res, err = tracedQueryCentric(b, f.env)
		b.tr.end(sp)
	} else {
		f.res, err = qc.QueryCentricWith(f.env, qc.DefaultQueryCentricConfig())
	}
	if err != nil {
		return nil, err
	}
	s := &sample{wall: time.Since(start), ops: len(f.res.Arms) * f.res.Queries}
	d := newDigest()
	d.ints(f.res.Peers, f.res.Objects, f.res.Warmup, f.res.Queries)
	for _, a := range f.res.Arms {
		d.str(a.Arm)
		d.floats(a.Success, a.MeanMessages, a.MeanHops, a.ShortcutHits)
		d.ints(a.Rewires, a.Replicas)
	}
	s.digest = d.sum()
	return s, nil
}

func (f *fiveArmInst) verify(b *bench, s *sample) []string {
	var fails []string
	if c := f.res.Arm("chord"); c == nil || c.Success != 1 {
		fails = append(fails, "chord arm did not resolve every lookup")
	}
	if f.res.AdaptiveGain < 2 {
		fails = append(fails, fmt.Sprintf("adaptive_gain %.2f, want >= 2", f.res.AdaptiveGain))
	}
	return fails
}

// tracedQueryCentric is experiments.QueryCentricWith with the default
// knobs, arm by arm, one span per arm and per layer call inside it. It
// follows the facade's construction order and seed offsets exactly; the
// self-test holds the two to the same sim_digest.
func tracedQueryCentric(b *bench, e *qc.Env) (*qc.QueryCentricResult, error) {
	tr := b.tr
	seed := e.Seed
	const ttl = 3
	peers, objs, pick, err := fiveArmPopulation(e)
	if err != nil {
		return nil, err
	}
	m := len(objs)
	buildNet := func() (*gnet.Network, error) {
		sp := tr.begin("gnet.New", -1)
		defer tr.end(sp)
		return fiveArmNetwork(seed, peers, objs)
	}

	acfg := adaptive.DefaultConfig(seed + 122)
	acfg.TTL = ttl
	acfg.Workers = e.Workers
	const warmBatches = 8
	warmup := warmBatches * acfg.AdaptInterval
	measured := max(2*e.P.SimTrials, 300)
	res := &qc.QueryCentricResult{Objects: m, Peers: peers, Warmup: warmup, Queries: measured}
	wseed, mseed := seed+124, seed+125
	addArm := func(name string, st *strategy.Stats) {
		res.Arms = append(res.Arms, qc.QueryCentricArm{
			Arm: name, Success: st.Success, MeanMessages: st.MeanMessages, MeanHops: st.MeanHops,
			ShortcutHits: st.ShortcutHits, Rewires: st.Rewires, Replicas: st.Replicas,
		})
	}
	// floodArm is arms 1 and 2: an inert adaptive system over a fresh
	// network, optionally with QRP tables.
	floodArm := func(span, label string, qrp bool) (*strategy.Stats, error) {
		sp := tr.begin(span, -1)
		defer tr.end(sp)
		nw, err := buildNet()
		if err != nil {
			return nil, err
		}
		if qrp {
			if err := tr.do("gnet.EnableQRP", func() error { return nw.EnableQRP(16) }); err != nil {
				return nil, err
			}
		}
		sys, err := adaptive.New(nw, objs, adaptive.Config{Seed: seed + 122, TTL: ttl, Workers: e.Workers, Label: label})
		if err != nil {
			return nil, err
		}
		var st *strategy.Stats
		err = tr.do("adaptive.RunWorkload", func() (err error) {
			st, err = sys.RunWorkload(measured, pick, mseed)
			return err
		})
		return st, err
	}

	stStatic, err := floodArm("arm.static", "static-flood", false)
	if err != nil {
		return nil, err
	}
	addArm("static-flood", stStatic)
	stQRP, err := floodArm("arm.qrp", "qrp", true)
	if err != nil {
		return nil, err
	}
	addArm("qrp", stQRP)

	// Arm 3: interest shortcuts over the projected overlay.
	sp := tr.begin("arm.shortcuts", -1)
	nwProj, err := buildNet()
	if err != nil {
		return nil, err
	}
	g, err := overlay.NewGraph(peers)
	if err != nil {
		return nil, err
	}
	for a, p := range nwProj.Peers {
		for _, nb := range p.Neighbors {
			if a < nb {
				if err := g.AddEdge(a, nb); err != nil {
					return nil, err
				}
			}
		}
	}
	holders := make([][]int32, m)
	for i, o := range objs {
		holders[i] = append([]int32(nil), o.Holders...)
	}
	scSys, err := shortcuts.New(g, &search.Placement{Nodes: peers, Holders: holders}, shortcuts.Config{ListSize: 10, TTL: ttl})
	if err != nil {
		return nil, err
	}
	var stSC *strategy.Stats
	err = tr.do("shortcuts.RunWorkload", func() error {
		if _, err := scSys.RunWorkload(warmup, pick, wseed); err != nil {
			return err
		}
		stSC, err = scSys.RunWorkload(measured, pick, mseed)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	addArm("shortcuts", stSC)

	// Arm 4: the adaptive overlay, warmed up through the event engine.
	sp = tr.begin("arm.adaptive", -1)
	nwAdapt, err := buildNet()
	if err != nil {
		return nil, err
	}
	adaptSys, err := adaptive.New(nwAdapt, objs, acfg)
	if err != nil {
		return nil, err
	}
	const roundLen = 60
	eng, err := events.New(seed+123, int64(warmBatches-1)*roundLen)
	if err != nil {
		return nil, err
	}
	warmBase := strategy.WorkloadStream(wseed)
	for wb := 0; wb < warmBatches; wb++ {
		start := wb * acfg.AdaptInterval
		err := eng.Schedule(int64(wb)*roundLen, events.PrioQuery, fmt.Sprintf("qc-batch/%d", wb),
			func(int64, *rng.Source) error {
				return tr.do("adaptive.RunBatch", func() error {
					return adaptSys.RunBatch(warmBase, start, acfg.AdaptInterval, pick)
				})
			})
		if err != nil {
			return nil, err
		}
	}
	err = events.ScheduleAdaptationRounds(eng, roundLen, roundLen, func(int, int64) error {
		return tr.do("adaptive.AdaptRound", func() error { adaptSys.AdaptRound(); return nil })
	})
	if err != nil {
		return nil, err
	}
	if err := tr.do("events.Run", eng.Run); err != nil {
		return nil, err
	}
	var stAdapt *strategy.Stats
	err = tr.do("adaptive.RunWorkload", func() (err error) {
		stAdapt, err = adaptSys.RunWorkload(measured, pick, mseed)
		return err
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	addArm("adaptive", stAdapt)

	// Arm 5: Chord.
	sp = tr.begin("arm.chord", -1)
	ring, err := chord.New(peers, seed+126)
	if err != nil {
		return nil, err
	}
	mBase := strategy.WorkloadStream(mseed)
	chordHops := 0
	for i := 0; i < measured; i++ {
		r := strategy.QueryStream(mBase, i)
		origin := r.Intn(peers)
		obj := pick(r)
		_, hops, err := ring.Lookup(chord.HashKey(objs[obj].Name), ring.NodeByIndex(origin))
		if err != nil {
			return nil, err
		}
		chordHops += hops
	}
	tr.end(sp)
	meanHops := float64(chordHops) / float64(measured)
	res.Arms = append(res.Arms, qc.QueryCentricArm{Arm: "chord", Success: 1, MeanMessages: meanHops, MeanHops: meanHops})
	if stStatic.Success > 0 {
		res.AdaptiveGain = stAdapt.Success / stStatic.Success
	}
	return res, nil
}

// fiveArmNetwork is the head-to-head's flat degree-4 wire-level network
// with the population's libraries installed.
func fiveArmNetwork(seed uint64, peers int, objs []adaptive.Object) (*gnet.Network, error) {
	libs := make([][]string, peers)
	for _, o := range objs {
		for _, h := range o.Holders {
			libs[h] = append(libs[h], o.Name)
		}
	}
	nw, err := gnet.New(gnet.Config{Seed: seed + 121, FlatDegree: 4}, peers)
	if err != nil {
		return nil, err
	}
	sizeRNG := gnet.NewFileSizeRNG(seed + 121)
	for id, lib := range libs {
		files := make([]gnet.File, len(lib))
		for i, name := range lib {
			files[i] = gnet.File{Index: uint32(i), Size: gnet.DrawFileSize(sizeRNG), Name: name}
		}
		nw.Peers[id].Library = files
	}
	return nw, nil
}

func (f *fiveArmInst) layers(b *bench, s *sample) error {
	agg := b.tr.aggregate()
	arms := map[string]string{
		"adaptive.static_run_s": "arm.static", "adaptive.qrp_run_s": "arm.qrp", "shortcuts.run_s": "arm.shortcuts",
		"adaptive.adapt_run_s": "arm.adaptive", "chord.run_s": "arm.chord",
	}
	sum := 0.0
	for metric, name := range arms {
		v := spanMeanS(agg, name)
		b.set(metric, v)
		sum += v
	}
	whole := spanMeanS(agg, "five_arm")
	b.set("adaptive.arms_residual_frac", (whole-sum)/whole)
	b.set("gnet.netbuild_s", agg["gnet.New"].Total.Seconds()/float64(agg["five_arm"].N))
	batch := agg["adaptive.RunBatch"]
	acfg := adaptive.DefaultConfig(0)
	b.set("adaptive.batch_us_per_query", batch.Total.Seconds()*1e6/float64(batch.N*acfg.AdaptInterval))
	b.set("adaptive.round_ms", spanMeanS(agg, "adaptive.AdaptRound")*1e3)
	ad := f.res.Arm("adaptive")
	b.set("adaptive.rewires", float64(ad.Rewires))
	b.set("adaptive.replicas", float64(ad.Replicas))
	b.set("adaptive.success", ad.Success)
	b.set("adaptive.msgs_per_query", ad.MeanMessages)

	// Mutation cost, on the set-up's own copy of the arm network.
	sp := b.tr.begin("probe.mutation", -1)
	defer b.tr.end(sp)
	nw := f.nw
	r := rng.NewNamed(b.opts.seed, "bench/mutation")
	n := b.sz.mutationOps
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := nw.AddFile(r.Intn(f.res.Peers), fmt.Sprintf("replica%04d studio master", i%60), 1<<20); err != nil {
			return err
		}
	}
	b.set("gnet.addfile_us", float64(time.Since(t0))/1e3/float64(n))
	swaps := 0
	t0 = time.Now()
	for i := 0; i < n; i++ {
		a := r.Intn(f.res.Peers)
		nbs := nw.Peers[a].Neighbors
		c := r.Intn(f.res.Peers)
		if len(nbs) == 0 || c == a {
			continue
		}
		old := nbs[r.Intn(len(nbs))]
		if nw.ConnectPeers(a, c) != nil {
			continue // already neighbours
		}
		nw.DisconnectPeers(a, old)
		swaps++
	}
	if swaps == 0 {
		return fmt.Errorf("rewire probe performed no swaps")
	}
	b.set("gnet.rewire_us", float64(time.Since(t0))/1e3/float64(swaps))
	return nil
}

func (f *fiveArmInst) reset(b *bench) error { return nil }
func (f *fiveArmInst) close() error         { return nil }
