package querycentric_test

import (
	"bytes"
	"testing"

	qc "querycentric"
)

func TestFacadeGnutellaCrawl(t *testing.T) {
	tr, st, err := qc.GnutellaCrawl(qc.GnutellaCrawlConfig{
		Seed: 1, Peers: 100, UniqueObjects: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Crawled != 100 {
		t.Errorf("crawled %d", st.Crawled)
	}
	rep := qc.Replicas(tr, false)
	if rep.Unique == 0 || rep.SingletonFrac == 0 {
		t.Errorf("degenerate report: %v", rep)
	}
	// Round-trip through the trace format.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := qc.ReadObjectTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(tr.Records) {
		t.Errorf("round trip lost records: %d vs %d", len(back.Records), len(tr.Records))
	}
}

func TestFacadeITunesCrawl(t *testing.T) {
	tr, st, err := qc.ITunesCrawl(qc.ITunesCrawlConfig{Seed: 2, Shares: 40, UniqueSongs: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if st.Collected == 0 || len(tr.Records) == 0 {
		t.Fatalf("degenerate crawl: %s", st)
	}
	rep, err := qc.Annotations(tr, qc.AnnotationArtist)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unique == 0 {
		t.Error("no artists")
	}
}

func TestFacadeQueryPipeline(t *testing.T) {
	tr, _, err := qc.GnutellaCrawl(qc.GnutellaCrawlConfig{Seed: 3, Peers: 80, UniqueObjects: 1500})
	if err != nil {
		t.Fatal(err)
	}
	qt, err := qc.QueryWorkload(qc.QueryWorkloadConfig{
		Seed: 4, Queries: 12000, Duration: 8 * 3600,
		FileTerms: qc.RankedFileTermStrings(tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := qc.Intervals(qt, qc.DefaultIntervalConfig())
	if err != nil {
		t.Fatal(err)
	}
	stab := qc.StabilitySeries(ivs)
	if len(stab) == 0 {
		t.Fatal("empty stability series")
	}
	fstar := qc.TopTerms(qc.RankedFileTerms(tr), 300)
	mis := qc.MismatchSeries(ivs, fstar)
	if len(mis) != len(ivs) {
		t.Fatalf("mismatch series length %d", len(mis))
	}
}

func TestFacadeTracker(t *testing.T) {
	cfg := qc.DefaultTrackerConfig()
	cfg.Interval = 60
	var closes int
	tr, err := qc.NewTracker(cfg, func(*qc.IntervalReport) { closes++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i += 10 {
		if err := tr.Observe(i, "stable query terms"); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if closes == 0 {
		t.Error("no intervals closed")
	}
}

func TestFacadeSimulation(t *testing.T) {
	g, err := qc.NewGnutellaOverlay(800, qc.DefaultGnutellaOverlay(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := qc.ZipfPlacement(800, 100, 2.45, 80, 6)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := qc.NewSearchEngine(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Flood(0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	hy, err := qc.NewHybrid(g, p, 7)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := hy.Search(0, 0, qc.DefaultHybridConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !hres.Found {
		t.Error("hybrid failed to find a published object")
	}
}

func TestFacadeTokenization(t *testing.T) {
	toks := qc.Tokenize("Aaron Neville - I Don't Know Much.mp3")
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
	if qc.Sanitize("A-B c") != "abc" {
		t.Error("sanitize broken")
	}
	if qc.Jaccard(map[string]struct{}{"a": {}}, map[string]struct{}{"a": {}}) != 1 {
		t.Error("jaccard broken")
	}
}

func TestFacadeScale(t *testing.T) {
	s, err := qc.ParseScale("tiny")
	if err != nil || s != qc.ScaleTiny {
		t.Fatalf("ParseScale: %v %v", s, err)
	}
}
