// Command qc-figures regenerates every table and figure of the paper in
// one run, writing one data file per figure plus a summary comparing the
// measured headline statistics with the paper's reported values.
//
// Usage:
//
//	qc-figures -scale default -seed 42 -out out/
//	qc-figures -scale tiny -metrics       # also write out/RUN_qc-figures_*.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	qc "querycentric"
	"querycentric/internal/cliflags"
	"querycentric/internal/parallel"
)

func main() {
	var (
		scaleName = cliflags.AddScale(flag.CommandLine, "default")
		seed      = cliflags.AddSeed(flag.CommandLine)
		outDir    = flag.String("out", "out", "output directory")
		workers   = cliflags.AddWorkers(flag.CommandLine)
		profiles  = cliflags.AddProfiles(flag.CommandLine)
		obsFlags  = cliflags.AddObs(flag.CommandLine, "qc-figures")
		snapFlags = cliflags.AddSnapshot(flag.CommandLine)
	)
	flag.Parse()
	scale, err := qc.ParseScale(*scaleName)
	if err != nil {
		fail(err)
	}
	if err := cliflags.CheckWorkers(*workers); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	finishProfiles, err := profiles.Start()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := finishProfiles(); err != nil {
			fail(err)
		}
	}()
	env := qc.NewEnv(scale, *seed)
	env.Workers = *workers
	env.SnapshotSave, env.SnapshotLoad = snapFlags.Save, snapFlags.Load
	env.Obs, env.FloodTraces = obsFlags.Setup()
	if env.Obs != nil {
		parallel.Instrument(env.Obs)
	}
	sum, err := os.Create(filepath.Join(*outDir, "summary.txt"))
	if err != nil {
		fail(err)
	}
	defer sum.Close()
	note := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		fmt.Fprintf(sum, format+"\n", args...)
	}
	note("qc-figures scale=%s seed=%d", scale, *seed)

	// writeTable renders one result as <outDir>/<name>.dat.
	writeTable := func(name string, r qc.Result) {
		f, err := os.Create(filepath.Join(*outDir, name+".dat"))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := qc.WriteResultTable(f, r); err != nil {
			fail(err)
		}
	}

	// Figures 1-3.
	for _, fig := range []struct {
		name  string
		run   func(*qc.Env) (*qc.DistResult, error)
		paper string
	}{
		{"fig1", qc.Fig1, "paper: 70.5% singleton, 99.5% ≤37 peers"},
		{"fig2", qc.Fig2, "paper: 69.8% singleton, 99.4% ≤37 peers"},
		{"fig3", qc.Fig3, "paper: 71.3% singleton terms, 98.3% ≤37 peers"},
	} {
		r, err := fig.run(env)
		if err != nil {
			fail(err)
		}
		writeTable(fig.name, r)
		note("%s: unique=%d singleton=%.1f%% ≤37peers=%.1f%% zipf_s=%.2f  [%s]",
			fig.name, r.Report.Unique, 100*r.SingletonFrac, 100*r.FracAtMost37,
			r.Report.Fit.S, fig.paper)
	}

	// Figure 4.
	f4, err := qc.Fig4(env)
	if err != nil {
		fail(err)
	}
	writeTable("fig4", f4)
	for _, a := range []qc.Annotation{qc.AnnotationSong, qc.AnnotationGenre, qc.AnnotationAlbum, qc.AnnotationArtist} {
		rep := f4.Reports[a]
		note("fig4-%s: unique=%d singleton=%.1f%% missing=%.1f%%  [paper: songs 64%% singleton; genre missing 8.7%%; album missing 8.1%%; artists 65%% singleton]",
			a, rep.Unique, 100*rep.SingletonFrac, 100*rep.MissingFrac)
	}
	note("fig4 crawl funnel: %s  [paper: 620 discovered, 45 password, 33 busy, 239 readable]", f4.CrawlStats)

	// Figure 5.
	f5, err := qc.Fig5(env)
	if err != nil {
		fail(err)
	}
	writeTable("fig5", f5)
	for _, iv := range qc.Fig5Intervals {
		s := f5.SummaryByInterval[iv]
		note("fig5 interval=%ds: mean=%.2f sd=%.2f max=%.0f  [paper: low mean, significant variance]",
			iv, s.Mean, s.StdDev, s.Max)
	}

	// Figure 6.
	f6, err := qc.Fig6(env)
	if err != nil {
		fail(err)
	}
	writeTable("fig6", f6)
	note("fig6: mean stability after warmup = %.3f  [paper: >0.90]", f6.MeanAfterWarmup)

	// Figure 7.
	f7, err := qc.Fig7(env)
	if err != nil {
		fail(err)
	}
	writeTable("fig7", f7)
	note("fig7: mean popular-vs-F* = %.3f, all-terms-vs-F* = %.3f, rank ρ = %.2f  [paper: <0.20, ~0.05, little correlation]",
		f7.MeanPopular, f7.MeanAllTerms, f7.RankCorrelation)

	// Interval-robustness sweeps (the paper's "consistent across intervals").
	s6, err := qc.Fig6Sweep(env)
	if err != nil {
		fail(err)
	}
	s7, err := qc.Fig7Sweep(env)
	if err != nil {
		fail(err)
	}
	f, err := os.Create(filepath.Join(*outDir, "interval_sweep.dat"))
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(f, "# interval_s\tstability_mean\tmismatch_mean")
	for i := range s6 {
		fmt.Fprintf(f, "%d\t%.4f\t%.4f\n", s6[i].Interval, s6[i].MeanValue, s7[i].MeanValue)
	}
	f.Close()
	for i := range s6 {
		note("interval %ds: stability=%.3f mismatch=%.3f  [paper: consistent across 15–120 min]",
			s6[i].Interval, s6[i].MeanValue, s7[i].MeanValue)
	}

	// §VI rare objects.
	rare, err := qc.RareObjectFraction(env)
	if err != nil {
		fail(err)
	}
	note("rare-objects: %.2f%% of objects on ≥20 peers, mean replicas %.2f  [paper: <4%%, mean ~1.5]",
		100*rare.FracAtLeast20, rare.MeanReplicas)

	// §V coverage table.
	cov, err := qc.TTLCoverage(env)
	if err != nil {
		fail(err)
	}
	writeTable("ttl_coverage", cov)
	note("ttl-coverage (%d nodes): %v, mean hops %.2f  [paper: 0.05%%, ..., 26.25%%, 82.95%%; 2.47 hops]",
		cov.Nodes, cov.Fractions, cov.MeanHops)

	// Figure 8.
	f8, err := qc.Fig8(env)
	if err != nil {
		fail(err)
	}
	writeTable("fig8", f8)
	note("fig8 (%d nodes): zipf@TTL3=%.3f uniform39@TTL3=%.3f zipf-mean=%.2f  [paper: ~5%% vs ~62%%; mean ~1.5]",
		f8.Nodes, f8.ZipfAtTTL3, f8.Uni39AtTTL3, f8.ZipfMean)

	// Hybrid vs DHT.
	h, err := qc.HybridVsDHT(env)
	if err != nil {
		fail(err)
	}
	note("hybrid-vs-dht (%d nodes): hybrid cost %.1f vs dht %.1f at success %.2f/%.2f, fallback %.2f  [paper: hybrid worse than DHT]",
		h.Nodes, h.Comparison.HybridMeanCost, h.Comparison.DHTMeanCost,
		h.Comparison.HybridSuccess, h.Comparison.DHTSuccess, h.Comparison.DHTFallbackFrac)

	// Gia rebuttal.
	g, err := qc.GiaComparison(env)
	if err != nil {
		fail(err)
	}
	note("gia (%d nodes): uniform-0.5%%=%.3f zipf=%.3f  [paper: Gia's uniform evaluation does not transfer]",
		g.Nodes, g.UniformSuccess, g.ZipfSuccess)

	// Synopsis ablation.
	s, err := qc.SynopsisAblation(env)
	if err != nil {
		fail(err)
	}
	note("synopsis (%d nodes): flood=%.3f static=%.3f adaptive=%.3f  [paper §VII: adaptive synopses improve success]",
		s.Nodes, s.FloodSuccess, s.StaticSuccess, s.AdaptiveSuccess)

	// Deployed QRP ablation.
	q, err := qc.QRPEffect(env)
	if err != nil {
		fail(err)
	}
	note("qrp (%d peers): success %.3f→%.3f, messages −%.0f%%  [QRP saves cost but cannot fix the mismatch]",
		q.Peers, q.PlainSuccess, q.QRPSuccess, 100*q.MessageSavings)

	// Churn amplification.
	ch, err := qc.ChurnComparison(env)
	if err != nil {
		fail(err)
	}
	writeTable("churn", ch)
	note("churn (%d nodes, %.0f%% online): uniform=%.3f zipf=%.3f  [churn amplifies the Zipf penalty]",
		ch.Nodes, 100*ch.MeanOnline, ch.UniformSuccess, ch.ZipfSuccess)

	// Mechanism comparison.
	wf, err := qc.WalkVsFlood(env)
	if err != nil {
		fail(err)
	}
	note("mechanisms (%d nodes): flood %.3f@%.0fmsg walk %.3f@%.0fmsg ring %.3f@%.0fmsg  [no mechanism fixes scarcity]",
		wf.Nodes, wf.FloodSuccess, wf.FloodMessages, wf.WalkSuccess, wf.WalkMessages,
		wf.RingSuccess, wf.RingMessages)

	// Replica allocation strategies.
	ra, err := qc.ReplicationStrategies(env)
	if err != nil {
		fail(err)
	}
	for _, row := range ra.Rows {
		note("replication %s/%s: success %.3f  [allocations must follow query popularity]",
			row.Strategy, row.Basis, row.Success)
	}

	// Structured baselines.
	d, err := qc.DHTRouting(env)
	if err != nil {
		fail(err)
	}
	note("dht routing (%d nodes): chord %.2f hops, pastry %.2f hops", d.Nodes, d.ChordMeanHops, d.PastryMeanHops)

	if path, err := obsFlags.WriteManifest("", scale.String(), *seed, *workers); err != nil {
		fail(err)
	} else if path != "" {
		fmt.Fprintf(os.Stderr, "qc-figures: wrote %s\n", path)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "qc-figures:", err)
	os.Exit(1)
}
