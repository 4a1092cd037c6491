package crawler

import (
	"testing"
	"time"

	"querycentric/internal/catalog"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
)

// faultedNet attaches a plane to a populated network.
func faultedNet(t *testing.T, peers int, fcfg faults.Config) *gnet.Network {
	t.Helper()
	nw := buildPopulatedNet(t, peers, 0)
	nw.SetFaults(faults.New(fcfg))
	return nw
}

func TestZeroFaultPlaneLeavesCrawlIdentical(t *testing.T) {
	nwA := buildPopulatedNet(t, 100, 0.1)
	nwB := buildPopulatedNet(t, 100, 0.1)
	nwB.SetFaults(faults.New(faults.Config{Seed: 77}))

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

func TestRetriesRecoverFromTransientDialFaults(t *testing.T) {
	// A single-attempt crawler loses peers to 30% dial faults; the same
	// crawl with a 5-attempt budget recovers nearly all of them.
	fcfg := faults.Config{Seed: 3, DialTimeout: 0.3}

	one := DefaultConfig()
	one.MaxAttempts = 1
	one.BackoffBase = 0
	_, statsOne, err := Crawl(faultedNet(t, 150, fcfg), one)
	if err != nil {
		t.Fatal(err)
	}
	if statsOne.Failed == 0 {
		t.Fatal("no failures at 30% dial-fault rate with a single attempt")
	}
	if statsOne.Retried != 0 {
		t.Errorf("single-attempt crawl retried %d times", statsOne.Retried)
	}

	five := DefaultConfig()
	five.MaxAttempts = 5
	five.BackoffBase = 0
	_, statsFive, err := Crawl(faultedNet(t, 150, fcfg), five)
	if err != nil {
		t.Fatal(err)
	}
	if statsFive.Retried == 0 {
		t.Error("retrying crawl performed no retries")
	}
	if statsFive.Crawled <= statsOne.Crawled {
		t.Errorf("retries did not improve coverage: %d (5 attempts) vs %d (1 attempt)",
			statsFive.Crawled, statsOne.Crawled)
	}
	if statsFive.Failed >= statsOne.Failed {
		t.Errorf("retries did not reduce failures: %d vs %d", statsFive.Failed, statsOne.Failed)
	}
	// Failed counts peers, not attempts: it can never exceed the number
	// of discovered peers.
	if statsFive.Failed+statsFive.Crawled+statsFive.Firewalled+statsFive.PartialBrowses > statsFive.Discovered {
		t.Errorf("funnel exceeds discovered peers: %s", statsFive)
	}
	if statsFive.GaveUp != statsFive.Failed+statsFive.PartialBrowses {
		t.Errorf("GaveUp (%d) should equal Failed+PartialBrowses (%d+%d) under transient-only faults",
			statsFive.GaveUp, statsFive.Failed, statsFive.PartialBrowses)
	}
}

func TestBackoffIsExponentialWithJitter(t *testing.T) {
	fcfg := faults.Config{Seed: 5, DialTimeout: 0.6}
	cfg := DefaultConfig()
	cfg.MaxAttempts = 4
	cfg.BackoffBase = 8 * time.Millisecond
	var waits []time.Duration
	cfg.sleep = func(d time.Duration) { waits = append(waits, d) }

	if _, _, err := Crawl(faultedNet(t, 60, fcfg), cfg); err != nil {
		t.Fatal(err)
	}
	if len(waits) == 0 {
		t.Fatal("no backoff waits recorded at 60% dial-fault rate")
	}
	distinct := map[time.Duration]bool{}
	for _, d := range waits {
		// Retry k waits in [base·2^(k-1)/2, base·2^(k-1)), capped at max.
		if d < cfg.BackoffBase/2 {
			t.Fatalf("wait %v below half the base backoff", d)
		}
		if d >= backoffMax {
			t.Fatalf("wait %v at or above the cap %v", d, backoffMax)
		}
		distinct[d] = true
	}
	if len(waits) > 4 && len(distinct) < 2 {
		t.Error("jitter produced no variation across waits")
	}
}

func TestPartialBrowseKeepsFilesRead(t *testing.T) {
	// Large libraries (multi-batch browses) + mid-session departures and
	// truncations: peers that die mid-browse must still contribute the
	// files already enumerated.
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 11, Peers: 30, UniqueObjects: 9000, ReplicaAlpha: 1.6,
		VariantProb: 0.05,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := gnet.DefaultConfig(11)
	nw, err := gnet.NewFromCatalogWorkers(gcfg, cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	multiBatch := 0
	for _, p := range nw.Peers {
		total += len(p.Library)
		if len(p.Library) > 200 {
			multiBatch++
		}
	}
	if multiBatch == 0 {
		t.Fatalf("population has no multi-batch libraries (max needed > 200 files)")
	}
	nw.SetFaults(faults.New(faults.Config{Seed: 2, PeerDepart: 0.35, TruncateWrite: 0.5}))

	cfg := DefaultConfig()
	cfg.MaxAttempts = 2
	cfg.BackoffBase = 0
	tr, stats, err := Crawl(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartialBrowses == 0 {
		t.Fatalf("no partial browses under heavy mid-session faults: %s", stats)
	}
	if len(tr.Records) == 0 || len(tr.Records) >= total {
		t.Errorf("partial crawl observed %d of %d records", len(tr.Records), total)
	}
	// Partial peers appear in the trace.
	if tr.Peers != stats.Crawled+stats.PartialBrowses {
		t.Errorf("trace.Peers = %d, want crawled+partial = %d",
			tr.Peers, stats.Crawled+stats.PartialBrowses)
	}
}

func TestCrawlDeterministicUnderFaults(t *testing.T) {
	fcfg := faults.Config{
		Seed: 21, DialTimeout: 0.25, HandshakeStall: 0.15, ConnReset: 0.15,
		TruncateWrite: 0.15, PeerDepart: 0.05,
	}
	cfg := DefaultConfig()
	cfg.MaxAttempts = 3
	cfg.BackoffBase = 0

	trA, statsA, err := Crawl(faultedNet(t, 120, fcfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trB, statsB, err := Crawl(faultedNet(t, 120, fcfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *statsA != *statsB {
		t.Fatalf("stats differ under identical fault seeds: %s vs %s", statsA, statsB)
	}
	if len(trA.Records) != len(trB.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(trA.Records), len(trB.Records))
	}
	for i := range trA.Records {
		if trA.Records[i] != trB.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if statsA.Retried == 0 && statsA.Failed == 0 && statsA.PartialBrowses == 0 {
		t.Error("fault schedule injected nothing; test is vacuous")
	}
}
