package experiments

import (
	"testing"

	"querycentric/internal/analysis"
)

// One tiny Env shared by all tests: building it exercises catalog, gnet,
// crawler, daap and querygen end to end.
func tinyEnv(t *testing.T) *Env {
	t.Helper()
	return NewEnv(ScaleTiny, 42)
}

func TestScaleParsing(t *testing.T) {
	for _, name := range []string{"tiny", "small", "default", "full", ""} {
		if _, err := ParseScale(name); err != nil {
			t.Errorf("ParseScale(%q): %v", name, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if ScaleTiny.String() != "tiny" || Scale(9).String() == "" {
		t.Error("Scale.String broken")
	}
}

func TestFig123Shapes(t *testing.T) {
	e := tinyEnv(t)
	f1, err := Fig1(e)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fig2(e)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Fig3(e)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 shape: most objects unreplicated, nearly all on ≤37 peers.
	if f1.SingletonFrac < 0.55 || f1.SingletonFrac > 0.90 {
		t.Errorf("fig1 singleton = %v, want ~0.70", f1.SingletonFrac)
	}
	if f1.FracAtMost37 < 0.97 {
		t.Errorf("fig1 ≤37-peer fraction = %v, want ≥0.97", f1.FracAtMost37)
	}
	// Figure 2 shape: sanitization merges variants, reducing uniques.
	if f2.Report.Unique >= f1.Report.Unique {
		t.Errorf("sanitized uniques %d not below raw %d", f2.Report.Unique, f1.Report.Unique)
	}
	// Figure 3 shape: far fewer terms than names; Zipf-ish fit.
	if f3.Report.Unique >= f1.Report.Unique {
		t.Errorf("terms %d not fewer than names %d", f3.Report.Unique, f1.Report.Unique)
	}
	if f3.Report.FitErr != nil {
		t.Errorf("fig3 fit error: %v", f3.Report.FitErr)
	}
	if f1.Report.Fit.S < 0.3 {
		t.Errorf("fig1 zipf exponent %v suspiciously flat", f1.Report.Fit.S)
	}
}

func TestFig4Shapes(t *testing.T) {
	e := tinyEnv(t)
	f4, err := Fig4(e)
	if err != nil {
		t.Fatal(err)
	}
	song := f4.Reports[analysis.AnnotationSong]
	if song.SingletonFrac < 0.45 || song.SingletonFrac > 0.85 {
		t.Errorf("song singleton = %v, want ~0.64", song.SingletonFrac)
	}
	genre := f4.Reports[analysis.AnnotationGenre]
	if genre.MissingFrac < 0.04 || genre.MissingFrac > 0.14 {
		t.Errorf("no-genre fraction = %v, want ~0.087", genre.MissingFrac)
	}
	album := f4.Reports[analysis.AnnotationAlbum]
	if album.MissingFrac < 0.04 || album.MissingFrac > 0.13 {
		t.Errorf("no-album fraction = %v, want ~0.081", album.MissingFrac)
	}
	artist := f4.Reports[analysis.AnnotationArtist]
	if artist.Unique == 0 || artist.Unique >= song.Unique {
		t.Errorf("artists %d vs songs %d", artist.Unique, song.Unique)
	}
	if f4.CrawlStats.Collected == 0 || f4.CrawlStats.Firewalled == 0 {
		t.Errorf("funnel degenerate: %s", f4.CrawlStats)
	}
}

func TestFig5Shape(t *testing.T) {
	e := tinyEnv(t)
	f5, err := Fig5(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range Fig5Intervals {
		sum, ok := f5.SummaryByInterval[iv]
		if !ok {
			t.Fatalf("missing interval %d", iv)
		}
		// Paper: low mean, nonzero variance.
		if sum.Mean > 15 {
			t.Errorf("interval %d: mean transients %v too high", iv, sum.Mean)
		}
	}
	any := false
	for _, pts := range f5.PointsByInterval {
		for _, p := range pts {
			if p.Count > 0 {
				any = true
			}
		}
	}
	if !any {
		t.Error("no transients detected at any interval")
	}
}

func TestFig6Shape(t *testing.T) {
	e := tinyEnv(t)
	f6, err := Fig6(e)
	if err != nil {
		t.Fatal(err)
	}
	if f6.MeanAfterWarmup < 0.70 {
		t.Errorf("stability mean = %v, want high (paper >0.9 at full scale)", f6.MeanAfterWarmup)
	}
}

func TestFig7Shape(t *testing.T) {
	e := tinyEnv(t)
	f7, err := Fig7(e)
	if err != nil {
		t.Fatal(err)
	}
	if f7.MeanPopular > 0.25 {
		t.Errorf("popular mismatch mean = %v, want < 0.25 (paper <0.20)", f7.MeanPopular)
	}
	if f7.MeanAllTerms > 0.25 {
		t.Errorf("all-terms mismatch mean = %v, want low (paper ~0.05)", f7.MeanAllTerms)
	}
}

func TestRareObjectFraction(t *testing.T) {
	e := tinyEnv(t)
	r, err := RareObjectFraction(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.FracAtLeast20 > 0.04 {
		t.Errorf("fraction on ≥20 peers = %v, paper says <4%%", r.FracAtLeast20)
	}
	if r.MeanReplicas < 1 || r.MeanReplicas > 3 {
		t.Errorf("mean replicas = %v", r.MeanReplicas)
	}
}

func TestTTLCoverageShape(t *testing.T) {
	e := tinyEnv(t)
	c, err := TTLCoverage(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Fractions) != MaxTTL {
		t.Fatalf("%d fractions", len(c.Fractions))
	}
	for i := 1; i < len(c.Fractions); i++ {
		if c.Fractions[i] < c.Fractions[i-1] {
			t.Errorf("coverage not monotone: %v", c.Fractions)
		}
	}
	// TTL-1 tiny, TTL-5 large (paper: 0.05% → 82.95%).
	if c.Fractions[0] > 0.05 {
		t.Errorf("TTL-1 coverage = %v, want small", c.Fractions[0])
	}
	if c.Fractions[4] < 0.4 {
		t.Errorf("TTL-5 coverage = %v, want large", c.Fractions[4])
	}
	if c.MeanHops < 1 || c.MeanHops > 3.5 {
		t.Errorf("mean hops = %v (paper: 2.47)", c.MeanHops)
	}
}

func TestFig8Shape(t *testing.T) {
	e := tinyEnv(t)
	f8, err := Fig8(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Curves) != len(fig8UniformReplicas)+1 {
		t.Fatalf("%d curves", len(f8.Curves))
	}
	for _, c := range f8.Curves {
		for i := 1; i < len(c.Success); i++ {
			if c.Success[i]+0.02 < c.Success[i-1] {
				t.Errorf("curve %s not monotone: %v", c.Label, c.Success)
			}
		}
	}
	// Who wins: denser uniform placements dominate sparser, comparing the
	// whole curves (single-TTL points can saturate at small scales).
	sum := func(c Fig8Curve) float64 {
		s := 0.0
		for _, v := range c.Success {
			s += v
		}
		return s
	}
	if u1, u39 := sum(f8.Curves[0]), sum(f8.Curves[4]); u39 <= u1 {
		t.Errorf("uniform-39 curve sum %v not above uniform-1 %v", u39, u1)
	}
	// The paper's headline: Zipf TTL-3 success far below the uniform-39.
	if f8.ZipfAtTTL3 >= f8.Uni39AtTTL3 {
		t.Errorf("Zipf TTL3 %v not below uniform-39 TTL3 %v", f8.ZipfAtTTL3, f8.Uni39AtTTL3)
	}
	if f8.ZipfMean < 1 || f8.ZipfMean > 3 {
		t.Errorf("Zipf placement mean = %v, want ~1.5", f8.ZipfMean)
	}
}

func TestHybridVsDHTShape(t *testing.T) {
	e := tinyEnv(t)
	h, err := HybridVsDHT(e)
	if err != nil {
		t.Fatal(err)
	}
	c := h.Comparison
	if c.HybridSuccess < 0.99 || c.DHTSuccess < 0.99 {
		t.Errorf("success: hybrid=%v dht=%v", c.HybridSuccess, c.DHTSuccess)
	}
	if c.HybridMeanCost <= c.DHTMeanCost {
		t.Errorf("hybrid cost %v not above DHT %v", c.HybridMeanCost, c.DHTMeanCost)
	}
	if c.DHTFallbackFrac < 0.85 {
		t.Errorf("fallback fraction = %v, want near 1", c.DHTFallbackFrac)
	}
}

func TestSynopsisAblationShape(t *testing.T) {
	e := tinyEnv(t)
	s, err := SynopsisAblation(e)
	if err != nil {
		t.Fatal(err)
	}
	if s.AdaptiveSuccess <= s.StaticSuccess {
		t.Errorf("adaptive %v not above static %v", s.AdaptiveSuccess, s.StaticSuccess)
	}
	if s.FloodSuccess < s.AdaptiveSuccess-0.05 {
		t.Errorf("flood upper bound %v below adaptive %v", s.FloodSuccess, s.AdaptiveSuccess)
	}
}

func TestGiaComparisonShape(t *testing.T) {
	e := tinyEnv(t)
	g, err := GiaComparison(e)
	if err != nil {
		t.Fatal(err)
	}
	if g.ZipfSuccess >= g.UniformSuccess {
		t.Errorf("Gia Zipf success %v not below uniform %v", g.ZipfSuccess, g.UniformSuccess)
	}
	if g.UniformSuccess < 0.4 {
		t.Errorf("Gia uniform success %v unexpectedly weak", g.UniformSuccess)
	}
}

func TestQRPEffectShape(t *testing.T) {
	e := tinyEnv(t)
	r, err := QRPEffect(e)
	if err != nil {
		t.Fatal(err)
	}
	// QRP must not lose any successful query (no false negatives)...
	if r.QRPSuccess < r.PlainSuccess-1e-9 {
		t.Errorf("QRP success %v below plain %v", r.QRPSuccess, r.PlainSuccess)
	}
	// ...and must not create success either: it routes on file terms, so
	// mismatched queries stay unanswerable.
	if r.QRPSuccess > r.PlainSuccess+0.02 {
		t.Errorf("QRP success %v above plain %v (?)", r.QRPSuccess, r.PlainSuccess)
	}
	if r.MessageSavings < 0.2 {
		t.Errorf("QRP message savings %v too small", r.MessageSavings)
	}
}

func TestChurnComparisonShape(t *testing.T) {
	e := tinyEnv(t)
	c, err := ChurnComparison(e)
	if err != nil {
		t.Fatal(err)
	}
	if c.ZipfSuccess >= c.UniformSuccess {
		t.Errorf("churned Zipf success %v not below uniform %v", c.ZipfSuccess, c.UniformSuccess)
	}
	if c.MeanOnline < 0.5 || c.MeanOnline > 0.9 {
		t.Errorf("mean online fraction %v outside the session model's range", c.MeanOnline)
	}
	if len(c.UniformSeries) == 0 || len(c.ZipfSeries) == 0 {
		t.Error("empty sample series")
	}
}

func TestWalkVsFloodShape(t *testing.T) {
	e := tinyEnv(t)
	w, err := WalkVsFlood(e)
	if err != nil {
		t.Fatal(err)
	}
	// All mechanisms struggle under Zipf placement; none dominates with an
	// order-of-magnitude success advantage.
	for name, s := range map[string]float64{
		"flood": w.FloodSuccess, "walk": w.WalkSuccess, "ring": w.RingSuccess,
	} {
		if s < 0 || s > 1 {
			t.Errorf("%s success out of range: %v", name, s)
		}
	}
	// The expanding ring must not cost more than a straight TTL-3 flood on
	// *successful* early terminations... at minimum it must record cost.
	if w.RingMessages <= 0 || w.FloodMessages <= 0 || w.WalkMessages <= 0 {
		t.Error("missing message costs")
	}
	// Walkers are budgeted far below the flood: their mean cost must be
	// lower.
	if w.WalkMessages >= w.FloodMessages {
		t.Errorf("walk cost %v not below flood %v", w.WalkMessages, w.FloodMessages)
	}
}

func TestReplicationStrategiesShape(t *testing.T) {
	e := tinyEnv(t)
	r, err := ReplicationStrategies(e)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, row := range r.Rows {
		byKey[row.Strategy+"/"+row.Basis] = row.Success
	}
	// Query-driven allocations must beat uniform under query-weighted load.
	if byKey["square-root/query"] <= byKey["uniform/query"] {
		t.Errorf("query sqrt %v not above uniform %v",
			byKey["square-root/query"], byKey["uniform/query"])
	}
	// The mismatch penalty: file-driven sqrt must lose most of the gain.
	gainQuery := byKey["square-root/query"] - byKey["uniform/query"]
	gainFile := byKey["square-root/file"] - byKey["uniform/query"]
	if gainFile > gainQuery*0.6 {
		t.Errorf("file-driven sqrt kept too much advantage: %v of %v", gainFile, gainQuery)
	}
}

func TestShortcutsExperimentShape(t *testing.T) {
	e := tinyEnv(t)
	r, err := ShortcutsExperiment(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.SteadyHits <= r.WarmupHits*0.8 {
		t.Errorf("steady hit rate %v did not hold up vs warmup %v", r.SteadyHits, r.WarmupHits)
	}
	if r.ShiftedHits >= r.SteadyHits {
		t.Errorf("interest shift did not degrade shortcuts: %v vs %v", r.ShiftedHits, r.SteadyHits)
	}
	if r.SteadyMessages >= r.FloodMessages {
		t.Errorf("shortcuts did not cut cost: %v vs flood %v", r.SteadyMessages, r.FloodMessages)
	}
}

func TestFig6And7Sweeps(t *testing.T) {
	e := tinyEnv(t)
	r, err := intervalSweep(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stability) != len(Fig5Intervals) || len(r.Mismatch) != len(Fig5Intervals) {
		t.Fatalf("sweep has %d stability and %d mismatch points", len(r.Stability), len(r.Mismatch))
	}
	for _, p := range r.Stability {
		if p.MeanValue < 0.6 {
			t.Errorf("stability at %ds = %v, not consistent across intervals", p.Interval, p.MeanValue)
		}
	}
	for _, p := range r.Mismatch {
		if p.MeanValue > 0.25 {
			t.Errorf("mismatch at %ds = %v, paper: <0.20 at every interval", p.Interval, p.MeanValue)
		}
	}
}

func TestParamsForScalesMonotone(t *testing.T) {
	prev := Params{}
	for i, s := range []Scale{ScaleTiny, ScaleSmall, ScaleDefault, ScaleFull} {
		p := ParamsFor(s)
		if p.GnutellaPeers <= 0 || p.UniqueObjects <= 0 || p.Queries <= 0 || p.SimNodes <= 0 {
			t.Fatalf("%s: degenerate params %+v", s, p)
		}
		if i > 0 {
			if p.GnutellaPeers < prev.GnutellaPeers || p.UniqueObjects < prev.UniqueObjects ||
				p.Queries < prev.Queries || p.SimNodes < prev.SimNodes {
				t.Errorf("%s params not monotone vs previous scale", s)
			}
		}
		prev = p
	}
	full := ParamsFor(ScaleFull)
	if full.GnutellaPeers != 37572 || full.UniqueObjects != 8100000 {
		t.Errorf("full scale does not match the paper: %+v", full)
	}
}

func TestFaultSweepShape(t *testing.T) {
	e := tinyEnv(t)
	res, err := FaultSweepWith(e, FaultSweepConfig{Rates: []float64{0, 0.4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d sweep points", len(res.Points))
	}
	clean, faulted := res.Points[0], res.Points[1]
	// Every point runs over the one network: a clean crawl after a faulted
	// one sees exactly what the first did (floods draw per-point streams).
	again := res.Points[2]
	again.FloodSuccess = clean.FloodSuccess
	if again != clean {
		t.Errorf("clean point after a faulted one differs: %+v vs %+v", res.Points[2], clean)
	}
	// The rate-zero point is the inert plane: full coverage, full record
	// count, no retries, nothing partial or failed.
	if clean.Coverage+clean.PartialFrac < 0.999 {
		t.Errorf("clean coverage = %v (+%v partial), want ~1 of non-firewalled reachable",
			clean.Coverage, clean.PartialFrac)
	}
	if clean.RecordFrac != 1 {
		t.Errorf("clean record fraction = %v, want exactly 1", clean.RecordFrac)
	}
	if clean.Retried != 0 || clean.FailedFrac != 0 || clean.PartialFrac != 0 {
		t.Errorf("clean point shows fault activity: %+v", clean)
	}
	if clean.FloodSuccess < 0.8 {
		t.Errorf("clean flood success = %v for known-item queries", clean.FloodSuccess)
	}
	// At a 40% fault rate the crawl degrades and the crawler works for it.
	if faulted.Coverage >= clean.Coverage {
		t.Errorf("faulted coverage %v not below clean %v", faulted.Coverage, clean.Coverage)
	}
	if faulted.RecordFrac >= 1 {
		t.Errorf("faulted record fraction %v not below 1", faulted.RecordFrac)
	}
	if faulted.Retried == 0 {
		t.Error("no retries at a 40% fault rate")
	}
	if faulted.FloodSuccess > clean.FloodSuccess {
		t.Errorf("flood success improved under 40%% loss: %v vs %v",
			faulted.FloodSuccess, clean.FloodSuccess)
	}
}

// TestFaultSweepDeterministic covers the dead-peer mask, which the
// registry's faults entry runs without, at 1 and 8 workers.
func TestFaultSweepDeterministic(t *testing.T) {
	run := func(workers int) FaultPoint {
		e := tinyEnv(t)
		e.Workers = workers
		res, err := FaultSweepWith(e, FaultSweepConfig{Rates: []float64{0.3}, DeadFrac: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0]
	}
	if a, b := run(1), run(8); a != b {
		t.Errorf("sweep not deterministic: %+v vs %+v", a, b)
	}
}

func TestFaultSweepRejectsBadRates(t *testing.T) {
	e := tinyEnv(t)
	for _, rates := range [][]float64{{-0.1}, {1.5}} {
		if _, err := FaultSweepWith(e, FaultSweepConfig{Rates: rates}); err == nil {
			t.Errorf("rate set %v accepted", rates)
		}
	}
}

func TestFig7RankCorrelationLow(t *testing.T) {
	e := tinyEnv(t)
	f7, err := Fig7(e)
	if err != nil {
		t.Fatal(err)
	}
	// The companion statistic: popularity orders are weakly related.
	if f7.RankCorrelation > 0.5 || f7.RankCorrelation < -0.5 {
		t.Errorf("rank correlation = %v, want weak (|ρ| ≤ 0.5)", f7.RankCorrelation)
	}
}
