package synopsis

import (
	"fmt"
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
)

func lineGraph(t *testing.T, n int) *overlay.Graph {
	t.Helper()
	g, err := overlay.NewGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := lineGraph(t, 3)
	if _, err := New(g, [][]string{{"a"}}, DefaultConfig(1)); err == nil {
		t.Error("mismatched content accepted")
	}
	content := [][]string{{"a"}, {"b"}, {"c"}}
	bad := DefaultConfig(1)
	bad.SynopsisTerms = 0
	if _, err := New(g, content, bad); err == nil {
		t.Error("zero budget accepted")
	}
	bad2 := DefaultConfig(1)
	bad2.FPRate = 1
	if _, err := New(g, content, bad2); err == nil {
		t.Error("FPRate 1 accepted")
	}
	bad3 := DefaultConfig(1)
	bad3.Fallback = -1
	if _, err := New(g, content, bad3); err == nil {
		t.Error("negative fallback accepted")
	}
}

func TestSearchDirectedBySynopsis(t *testing.T) {
	// Line 0-1-2-3: only node 3 has the content; synopses lead there.
	g := lineGraph(t, 4)
	content := [][]string{{}, {"x"}, {"x"}, {"madonna", "music"}}
	cfg := DefaultConfig(2)
	cfg.Fallback = 0
	n, err := New(g, content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Search(0, []string{"madonna", "music"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With no fallback, forwarding only follows claiming synopses; node 1
	// and 2 don't claim, so the query dies unless 0's neighbour (1) claims.
	// Expect failure here — that's the blind-spot behaviour.
	if res.Found {
		t.Log("query found content despite no synopsis path (bloom FP); acceptable but unusual")
	}
	// Now with fallback the walk can tunnel through.
	cfg.Fallback = 1
	n2, err := New(g, content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < 5; i++ {
		res, err := n2.Search(0, []string{"madonna", "music"}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found {
			found = true
			break
		}
	}
	if !found {
		t.Error("fallback forwarding never reached the content")
	}
}

func TestSearchImmediateNeighbour(t *testing.T) {
	g := lineGraph(t, 3)
	content := [][]string{{}, {"zeppelin", "stairway"}, {}}
	cfg := DefaultConfig(3)
	cfg.Fallback = 0
	n, err := New(g, content, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Search(0, []string{"zeppelin"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 1 {
		t.Errorf("result: %+v", res)
	}
}

func TestSearchOriginContent(t *testing.T) {
	g := lineGraph(t, 2)
	n, err := New(g, [][]string{{"abba"}, {}}, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Search(0, []string{"abba"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Hops != 0 || res.Messages != 0 {
		t.Errorf("result: %+v", res)
	}
}

func TestSearchValidation(t *testing.T) {
	g := lineGraph(t, 2)
	n, _ := New(g, [][]string{{"a"}, {"b"}}, DefaultConfig(5))
	if _, err := n.Search(-1, []string{"a"}, 1); err == nil {
		t.Error("bad origin accepted")
	}
	if _, err := n.Search(0, nil, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := n.Search(0, []string{"a"}, 0); err == nil {
		t.Error("zero TTL accepted")
	}
}

func TestAdvertisedBudget(t *testing.T) {
	g := lineGraph(t, 2)
	var big []string
	for i := 0; i < 100; i++ {
		big = append(big, fmt.Sprintf("term%03d", i))
	}
	cfg := DefaultConfig(6)
	cfg.SynopsisTerms = 10
	cfg.Adaptive = false
	n, err := New(g, [][]string{big, {}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adv := n.advertised(0)
	if len(adv) != 10 {
		t.Fatalf("advertised %d terms, want 10", len(adv))
	}
}

func TestAdaptivePrioritizesPopular(t *testing.T) {
	g := lineGraph(t, 2)
	var big []string
	for i := 0; i < 100; i++ {
		big = append(big, fmt.Sprintf("term%03d", i))
	}
	cfg := DefaultConfig(7)
	cfg.SynopsisTerms = 5
	cfg.Adaptive = true
	n, err := New(g, [][]string{big, {}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetPopular([]string{"term099", "term050", "nothere"}); err != nil {
		t.Fatal(err)
	}
	adv := map[string]bool{}
	for _, s := range n.advertised(0) {
		adv[s] = true
	}
	if !adv["term099"] || !adv["term050"] {
		t.Errorf("popular terms not prioritized: %v", n.advertised(0))
	}
	if len(adv) != 5 {
		t.Errorf("budget violated: %d", len(adv))
	}
}

func TestStaticIgnoresPopular(t *testing.T) {
	g := lineGraph(t, 2)
	var big []string
	for i := 0; i < 100; i++ {
		big = append(big, fmt.Sprintf("term%03d", i))
	}
	cfg := DefaultConfig(8)
	cfg.SynopsisTerms = 5
	cfg.Adaptive = false
	n, _ := New(g, [][]string{big, {}}, cfg)
	before := fmt.Sprint(n.advertised(0))
	if err := n.SetPopular([]string{"term099"}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(n.advertised(0)) != before {
		t.Error("static policy re-advertised after SetPopular")
	}
}

func TestAdaptiveBeatsStaticUnderPopularQueries(t *testing.T) {
	// Each node holds 60 terms but may advertise only 12. Queries use a
	// small popular vocabulary that every node partially holds deep in its
	// term list; adaptive advertising surfaces exactly those terms.
	const nodes = 300
	g, err := overlay.NewErdosRenyi(nodes, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(10)
	popular := make([]string, 20)
	for i := range popular {
		popular[i] = fmt.Sprintf("hot%02d", i)
	}
	content := make([][]string, nodes)
	for v := range content {
		var ts []string
		// 55 cold filler terms that sort BEFORE the hot terms, so the
		// static first-K advertisement never includes hot content.
		for k := 0; k < 55; k++ {
			ts = append(ts, fmt.Sprintf("cold%03d-%03d", v, k))
		}
		// A few hot terms on ~30% of nodes.
		if r.Bool(0.3) {
			ts = append(ts, popular[r.Intn(len(popular))], popular[r.Intn(len(popular))])
		}
		content[v] = ts
	}
	run := func(adaptive bool) float64 {
		cfg := DefaultConfig(11)
		cfg.SynopsisTerms = 12
		cfg.Adaptive = adaptive
		cfg.Fallback = 1
		n, err := New(g, content, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SetPopular(popular); err != nil {
			t.Fatal(err)
		}
		qr := rng.New(12)
		hits := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			q := []string{popular[qr.Intn(len(popular))]}
			res, err := n.Search(qr.Intn(nodes), q, 4)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				hits++
			}
		}
		return float64(hits) / trials
	}
	static := run(false)
	adaptive := run(true)
	if adaptive <= static {
		t.Errorf("adaptive success %v not above static %v", adaptive, static)
	}
	if adaptive < 0.3 {
		t.Errorf("adaptive success %v unexpectedly low", adaptive)
	}
}

func BenchmarkSynopsisSearch(b *testing.B) {
	g, err := overlay.NewErdosRenyi(2000, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	content := make([][]string, 2000)
	for v := range content {
		for k := 0; k < 30; k++ {
			content[v] = append(content[v], fmt.Sprintf("t%d-%d", v%200, k))
		}
	}
	n, err := New(g, content, DefaultConfig(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Search(i%2000, []string{fmt.Sprintf("t%d-%d", i%200, i%30)}, 4); err != nil {
			b.Fatal(err)
		}
	}
}
