package main

import (
	"fmt"
	"math"
	"time"

	qc "querycentric"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

const (
	fig8MaxTTL  = 5
	fig8Objects = 300
)

// fig8UniformReplicas are the paper's uniform replica counts at 40,000
// nodes, scaled to the simulated size like the facade does.
var fig8UniformReplicas = []int{1, 4, 9, 19, 39}

// fig8Inst is graph_fig8: the facade's Figure 8 sweep — five uniform
// placements and the Zipf placement, TTL 1..5 — through overlay, search
// and parallel only. The traced run performs the same sweep call by call.
type fig8Inst struct {
	env *qc.Env
	res *qc.Fig8Result
	// g is one copy of the sweep's substrate, the two-tier overlay graph.
	// The facade call builds its own; this copy is what
	// heap_after_setup_mib weighs and what the probes run on.
	g *overlay.Graph
}

func fig8Env(b *bench, trials int) *qc.Env {
	env := qc.NewEnv(qc.ScaleTiny, b.opts.seed)
	env.Workers = b.workers
	env.P.SimNodes = b.sz.figNodes
	env.P.SimTrials = trials
	return env
}

// setupFig8 builds one copy of the overlay graph and warms up with a
// discarded sweep at a quarter of the trials.
func setupFig8(b *bench) (instance, error) {
	f := &fig8Inst{env: fig8Env(b, b.sz.figTrials)}
	var err error
	if f.g, err = overlay.NewGnutella(f.env.P.SimNodes, overlay.DefaultGnutellaConfig(), f.env.Seed+5); err != nil {
		return nil, err
	}
	if _, err := qc.Fig8(fig8Env(b, b.sz.figTrials/4)); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fig8Inst) measure(b *bench) (*sample, error) {
	start := time.Now()
	var err error
	if b.tr.on {
		sp := b.tr.begin("fig8", -1)
		f.res, err = tracedFig8(b, f.env)
		b.tr.end(sp)
	} else {
		f.res, err = qc.Fig8(f.env)
	}
	if err != nil {
		return nil, err
	}
	s := &sample{wall: time.Since(start), ops: len(f.res.Curves) * fig8MaxTTL * f.env.P.SimTrials}
	d := newDigest()
	d.ints(f.res.Nodes)
	d.floats(f.res.ZipfMean, f.res.ZipfAtTTL3, f.res.Uni39AtTTL3)
	for _, c := range f.res.Curves {
		d.str(c.Label)
		d.ints(c.Replicas)
		d.floats(c.Success...)
	}
	s.digest = d.sum()
	return s, nil
}

func (f *fig8Inst) verify(b *bench, s *sample) []string {
	var fails []string
	for _, c := range f.res.Curves {
		for i, rate := range c.Success {
			if rate < 0 || rate > 1 {
				fails = append(fails, fmt.Sprintf("curve %s TTL %d: success %.4f outside [0,1]", c.Label, i+1, rate))
			}
			if i > 0 && rate < c.Success[i-1] {
				fails = append(fails, fmt.Sprintf("curve %s: success falls from TTL %d to %d", c.Label, i, i+1))
			}
		}
	}
	// The paper's ordering: the measured Zipf placement (5% at TTL 3) sits
	// far below what the uniform 0.1% model predicts (62%).
	if f.res.ZipfAtTTL3 >= f.res.Uni39AtTTL3 {
		fails = append(fails, fmt.Sprintf("Zipf@TTL3 %.4f not below uniform-39@TTL3 %.4f", f.res.ZipfAtTTL3, f.res.Uni39AtTTL3))
	}
	return fails
}

// tracedFig8 is experiments.Fig8 call by call, with the facade's seed
// offsets, so the two produce the same curves.
func tracedFig8(b *bench, e *qc.Env) (*qc.Fig8Result, error) {
	tr := b.tr
	nodes, trials := e.P.SimNodes, e.P.SimTrials
	var g *overlay.Graph
	err := tr.do("overlay.NewGnutella", func() (err error) {
		g, err = overlay.NewGnutella(nodes, overlay.DefaultGnutellaConfig(), e.Seed+5)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &qc.Fig8Result{Nodes: nodes}
	pick := func(r *rng.Source) int { return r.Intn(fig8Objects) }
	sweep := func(label string, replicas int, p *search.Placement, seedBase uint64) (qc.Fig8Curve, error) {
		curve := qc.Fig8Curve{Label: label, Replicas: replicas}
		eng, err := search.NewEngine(g, p)
		if err != nil {
			return curve, err
		}
		for ttl := 1; ttl <= fig8MaxTTL; ttl++ {
			sp := tr.begin(fmt.Sprintf("search.SuccessRateN/ttl%d", ttl), -1)
			rate, err := eng.SuccessRateN(ttl, trials, pick, seedBase+uint64(ttl), b.workers)
			tr.end(sp)
			if err != nil {
				return curve, err
			}
			curve.Success = append(curve.Success, rate)
		}
		return curve, nil
	}
	for _, base := range fig8UniformReplicas {
		reps := max(1, min(nodes, int(math.Round(float64(base)*float64(nodes)/40000))))
		var p *search.Placement
		err := tr.do("search.Placement", func() (err error) {
			p, err = search.UniformPlacement(nodes, fig8Objects, reps, e.Seed+6)
			return err
		})
		if err != nil {
			return nil, err
		}
		curve, err := sweep(fmt.Sprintf("uniform-%d", base), reps, p, e.Seed+7)
		if err != nil {
			return nil, err
		}
		if base == 39 {
			out.Uni39AtTTL3 = curve.Success[2]
		}
		out.Curves = append(out.Curves, curve)
	}
	var zp *search.Placement
	err = tr.do("search.Placement", func() (err error) {
		zp, err = search.ZipfPlacement(nodes, fig8Objects, 2.45, nodes/10, e.Seed+8)
		return err
	})
	if err != nil {
		return nil, err
	}
	curve, err := sweep("zipf", 0, zp, e.Seed+20)
	if err != nil {
		return nil, err
	}
	out.ZipfAtTTL3 = curve.Success[2]
	out.ZipfMean = zp.MeanReplicas()
	out.Curves = append(out.Curves, curve)
	return out, nil
}

func (f *fig8Inst) layers(b *bench, s *sample) error {
	agg := b.tr.aggregate()
	sweeps := float64(agg["fig8"].N)
	b.set("overlay.graph_build_s", spanMeanS(agg, "overlay.NewGnutella"))
	b.set("search.placement_s", agg["search.Placement"].Total.Seconds()/sweeps)
	trials := float64(f.env.P.SimTrials)
	for _, ttl := range []int{1, 3, 5} {
		st := agg[fmt.Sprintf("search.SuccessRateN/ttl%d", ttl)]
		b.set(fmt.Sprintf("search.trials_per_s_ttl%d", ttl), float64(st.N)*trials/st.Total.Seconds())
	}

	sp := b.tr.begin("probe.coverage", -1)
	nodes, g := f.env.P.SimNodes, f.g
	t0 := time.Now()
	fracs, err := overlay.CoverageStatsN(g, fig8MaxTTL, b.sz.coverageSamples, b.opts.seed, b.workers)
	if err != nil {
		return err
	}
	el := time.Since(t0)
	visited := 0.0
	for _, fr := range fracs {
		visited += fr * float64(nodes) * float64(b.sz.coverageSamples)
	}
	b.set("overlay.coverage_ns_per_node", float64(el)/visited)
	b.tr.end(sp)

	// What any worker-level change can buy: the TTL-3 Zipf curve on one
	// worker against the run's worker count. Flat (and unverified) on 1 CPU.
	sp = b.tr.begin("probe.parallel", -1)
	defer b.tr.end(sp)
	zp, err := search.ZipfPlacement(nodes, fig8Objects, 2.45, nodes/10, f.env.Seed+8)
	if err != nil {
		return err
	}
	eng, err := search.NewEngine(g, zp)
	if err != nil {
		return err
	}
	pick := func(r *rng.Source) int { return r.Intn(fig8Objects) }
	timeAt := func(workers int) (float64, error) {
		t0 := time.Now()
		_, err := eng.SuccessRateN(3, 4*f.env.P.SimTrials, pick, f.env.Seed+23, workers)
		return time.Since(t0).Seconds(), err
	}
	one, err := timeAt(1)
	if err != nil {
		return err
	}
	many, err := timeAt(b.workers)
	if err != nil {
		return err
	}
	b.set("parallel.speedup_vs_1", one/many)
	return nil
}

func (f *fig8Inst) reset(b *bench) error { return nil }
func (f *fig8Inst) close() error         { return nil }
