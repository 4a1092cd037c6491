package querycentric_test

import (
	"fmt"

	qc "querycentric"
)

// ExampleGnutellaCrawl shows the shortest path from nothing to the
// paper's Figure 1 statistic: crawl a synthetic network and measure how
// many objects live on a single peer.
func ExampleGnutellaCrawl() {
	tr, stats, err := qc.GnutellaCrawl(qc.GnutellaCrawlConfig{
		Seed: 1, Peers: 100, UniqueObjects: 2000,
	})
	if err != nil {
		panic(err)
	}
	rep := qc.Replicas(tr, false)
	fmt.Println("peers crawled:", stats.Crawled)
	fmt.Println("singleton majority:", rep.SingletonFrac > 0.5)
	// Output:
	// peers crawled: 100
	// singleton majority: true
}

// ExampleNewTracker demonstrates the online query-centric engine: feed a
// query stream, read back the interval's popular terms.
func ExampleNewTracker() {
	cfg := qc.DefaultTrackerConfig()
	cfg.Interval = 60
	cfg.MinPopularCount = 3
	tracker, err := qc.NewTracker(cfg, nil)
	if err != nil {
		panic(err)
	}
	for i := int64(0); i < 10; i++ {
		tracker.Observe(i, "madonna music")
	}
	tracker.Observe(30, "rare zebra")
	tracker.Flush()
	pop := tracker.Popular()
	_, madonna := pop["madonna"]
	_, zebra := pop["zebra"]
	fmt.Println("madonna popular:", madonna)
	fmt.Println("zebra popular:", zebra)
	// Output:
	// madonna popular: true
	// zebra popular: false
}

// ExampleTokenize shows the protocol tokenization the analyses use.
func ExampleTokenize() {
	fmt.Println(qc.Tokenize("Aaron Neville - I Don't Know Much.mp3"))
	// Output:
	// [aaron neville don know much mp3]
}

// ExampleSanitize shows the Figure 2 name normalization.
func ExampleSanitize() {
	fmt.Println(qc.Sanitize("AARON Neville- I Dont Know Much.MP3"))
	// Output:
	// aaronnevilleidontknowmuchmp3
}

// ExampleZipfPlacement builds the measured-style replica placement and
// reports its headline property.
func ExampleZipfPlacement() {
	p, err := qc.ZipfPlacement(1000, 500, 2.45, 100, 7)
	if err != nil {
		panic(err)
	}
	single := 0
	for _, h := range p.Holders {
		if len(h) == 1 {
			single++
		}
	}
	fmt.Println("most objects single-copy:", single > 250)
	// Output:
	// most objects single-copy: true
}

// ExampleSearchEngine_SuccessRate contrasts flood success under the
// uniform replication model prior work assumed with the Zipf placement the
// paper measured, on the same overlay and query mix.
func ExampleSearchEngine_SuccessRate() {
	const nodes, objects = 4000, 250
	g, err := qc.NewGnutellaOverlay(nodes, qc.DefaultGnutellaOverlay(), 21)
	if err != nil {
		panic(err)
	}
	uniform, err := qc.UniformPlacement(nodes, objects, nodes/1000, 22)
	if err != nil {
		panic(err)
	}
	zipf, err := qc.ZipfPlacement(nodes, objects, 2.45, nodes/10, 22)
	if err != nil {
		panic(err)
	}
	pick := func(r *qc.RNG) int { return r.Intn(objects) }
	for _, p := range []*qc.Placement{uniform, zipf} {
		eng, err := qc.NewSearchEngine(g, p)
		if err != nil {
			panic(err)
		}
		rate, err := eng.SuccessRate(3, 200, pick, 23)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%.1f replicas/object: TTL-3 success %.1f%%\n", p.MeanReplicas(), 100*rate)
	}
	// Output:
	// 4.0 replicas/object: TTL-3 success 73.0%
	// 1.9 replicas/object: TTL-3 success 39.0%
}

// ExampleHybridSystem_Compare runs hybrid search (flood, then fall back to
// the DHT) against a pure DHT under the measured Zipf placement.
func ExampleHybridSystem_Compare() {
	const nodes, objects = 4000, 250
	g, err := qc.NewGnutellaOverlay(nodes, qc.DefaultGnutellaOverlay(), 21)
	if err != nil {
		panic(err)
	}
	zipf, err := qc.ZipfPlacement(nodes, objects, 2.45, nodes/10, 22)
	if err != nil {
		panic(err)
	}
	hy, err := qc.NewHybrid(g, zipf, 24)
	if err != nil {
		panic(err)
	}
	cmp, err := hy.Compare(qc.DefaultHybridConfig(), 200, func(r *qc.RNG) int { return r.Intn(objects) }, 25)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hybrid: success %.1f%%, %.0f msgs/query, DHT fallback %.0f%%\n",
		100*cmp.HybridSuccess, cmp.HybridMeanCost, 100*cmp.DHTFallbackFrac)
	fmt.Printf("DHT:    success %.1f%%, %.0f msgs/query\n", 100*cmp.DHTSuccess, cmp.DHTMeanCost)
	// Output:
	// hybrid: success 100.0%, 1576 msgs/query, DHT fallback 100%
	// DHT:    success 100.0%, 7 msgs/query
}

// ExampleReplicationStrategies spreads one replica budget by the uniform,
// proportional and square-root rules, driven by query or by file
// popularity, and scores each under the query distribution.
func ExampleReplicationStrategies() {
	res, err := qc.ReplicationStrategies(qc.NewEnv(qc.ScaleTiny, 99))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d nodes, %d replicas\n", res.Nodes, res.Budget)
	for _, row := range res.Rows {
		fmt.Printf("%-12s %-6s %.1f%%\n", row.Strategy, row.Basis, 100*row.Success)
	}
	// Output:
	// 500 nodes, 375 replicas
	// uniform      query  38.5%
	// square-root  query  44.0%
	// proportional query  53.0%
	// square-root  file   24.0%
	// proportional file   29.0%
}

// ExampleNewSynopsisNetwork shows the paper's proposed direction: peers
// advertise a bounded synopsis of their terms, and an adaptive network
// spends that budget on the terms a Tracker sees users query.
func ExampleNewSynopsisNetwork() {
	const nodes = 200
	g, err := qc.NewErdosRenyiOverlay(nodes, 6, 31)
	if err != nil {
		panic(err)
	}
	// Every peer holds twelve of forty terms; only two fit its synopsis.
	content := make([][]string, nodes)
	for v := range content {
		for k := 0; k < 12; k++ {
			content[v] = append(content[v], fmt.Sprintf("t%02d", (v+3*k)%40))
		}
	}
	for _, adaptive := range []bool{false, true} {
		cfg := qc.DefaultSynopsisConfig(33)
		cfg.SynopsisTerms = 2
		cfg.Adaptive = adaptive
		net, err := qc.NewSynopsisNetwork(g, content, cfg)
		if err != nil {
			panic(err)
		}
		tcfg := qc.DefaultTrackerConfig()
		tcfg.Interval = 1
		tracker, err := qc.NewTracker(tcfg, nil)
		if err != nil {
			panic(err)
		}
		r := qc.NewRNG(34)
		hits := 0
		for round := int64(0); round < 2; round++ {
			for i := 0; i < 100; i++ {
				term := fmt.Sprintf("t%02d", 30+r.Intn(3))
				if round > 0 {
					res, err := net.Search(r.Intn(nodes), []string{term}, 2)
					if err != nil {
						panic(err)
					}
					if res.Found {
						hits++
					}
				}
				tracker.Observe(round, term)
			}
			tracker.Flush()
			if err := net.SetPopular(tracker.PopularTerms()); err != nil {
				panic(err)
			}
		}
		fmt.Printf("adaptive=%v: %d of 100 queries answered within TTL 2\n", adaptive, hits)
	}
	// Output:
	// adaptive=false: 67 of 100 queries answered within TTL 2
	// adaptive=true: 100 of 100 queries answered within TTL 2
}
