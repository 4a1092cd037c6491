package crawler

import (
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
)

func buildPopulatedNet(t *testing.T, peers int, firewalled float64) *gnet.Network {
	t.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 7, Peers: peers, UniqueObjects: peers * 20, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnet.DefaultConfig(7)
	cfg.FirewalledFrac = firewalled
	nw, err := gnet.NewFromCatalogWorkers(cfg, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestCrawlCoversOpenNetwork(t *testing.T) {
	nw := buildPopulatedNet(t, 150, 0)
	tr, stats, err := Crawl(nw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Discovered != 150 {
		t.Errorf("discovered %d of 150 peers", stats.Discovered)
	}
	if stats.Crawled != 150 {
		t.Errorf("crawled %d of 150 peers", stats.Crawled)
	}
	if stats.Firewalled != 0 || stats.Failed != 0 {
		t.Errorf("unexpected failures: %s", stats)
	}
	// Every placement in every library must appear in the trace.
	want := 0
	for _, p := range nw.Peers {
		want += len(p.Library)
	}
	if len(tr.Records) != want {
		t.Errorf("trace has %d records, libraries hold %d files", len(tr.Records), want)
	}
	if tr.Peers != 150 {
		t.Errorf("trace.Peers = %d", tr.Peers)
	}
}

func TestCrawlObservesExactNames(t *testing.T) {
	nw := buildPopulatedNet(t, 60, 0)
	tr, _, err := Crawl(nw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Multiset of names in the trace must equal the multiset in libraries.
	wantCounts := map[string]int{}
	for _, p := range nw.Peers {
		for _, f := range p.Library {
			wantCounts[f.Name]++
		}
	}
	gotCounts := map[string]int{}
	for _, r := range tr.Records {
		gotCounts[r.Name]++
	}
	if len(gotCounts) != len(wantCounts) {
		t.Fatalf("distinct names: got %d, want %d", len(gotCounts), len(wantCounts))
	}
	for name, want := range wantCounts {
		if gotCounts[name] != want {
			t.Errorf("name %q: got %d, want %d", name, gotCounts[name], want)
		}
	}
}

func TestCrawlFirewalledFunnel(t *testing.T) {
	nw := buildPopulatedNet(t, 200, 0.25)
	_, stats, err := Crawl(nw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Firewalled == 0 {
		t.Error("no firewalled peers observed despite 25% firewall rate")
	}
	if stats.Crawled+stats.Firewalled > stats.Discovered {
		t.Errorf("funnel inconsistent: %s", stats)
	}
	if stats.Crawled == 0 {
		t.Error("nothing crawled")
	}
}

func TestCrawlDeterministic(t *testing.T) {
	nwA := buildPopulatedNet(t, 80, 0.1)
	nwB := buildPopulatedNet(t, 80, 0.1)
	trA, statsA, err := Crawl(nwA, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	trB, statsB, err := Crawl(nwB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *statsA != *statsB {
		t.Fatalf("stats differ: %s vs %s", statsA, statsB)
	}
	if len(trA.Records) != len(trB.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(trA.Records), len(trB.Records))
	}
	for i := range trA.Records {
		if trA.Records[i] != trB.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCrawlEmptyNetwork(t *testing.T) {
	nw := &gnet.Network{}
	if _, _, err := Crawl(nw, DefaultConfig()); err == nil {
		t.Error("crawl of empty network succeeded")
	}
}

func BenchmarkCrawl(b *testing.B) {
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 7, Peers: 100, UniqueObjects: 2000, ReplicaAlpha: 2.45,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := gnet.NewFromCatalogWorkers(gnet.DefaultConfig(7), cat, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Crawl(nw, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
