package adaptive

import (
	"fmt"
	"reflect"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/strategy"
)

// testPopulation builds a small flat network with m uniquely named objects
// placed on 1–2 peers each — scarce enough that a TTL-2 flood misses often.
func testPopulation(t *testing.T, peers, m int, seed uint64) (*gnet.Network, []Object) {
	t.Helper()
	libs := make([][]string, peers)
	objs := make([]Object, m)
	place := rng.NewNamed(seed, "adaptive-test/place")
	cat := &catalog.Catalog{Libraries: libs}
	for i := range objs {
		name := fmt.Sprintf("track%04d studio master", i)
		holders := place.SampleInts(peers, 1+i%2)
		objs[i] = Object{Name: name, Size: 1 << 20}
		for _, h := range holders {
			libs[h] = append(libs[h], name)
			objs[i].Holders = append(objs[i].Holders, int32(h))
		}
		cat.Objects = append(cat.Objects, catalog.Object{ID: i, Name: name, Replicas: len(holders)})
	}
	nw, err := gnet.NewFromCatalog(gnet.Config{Seed: seed, FlatDegree: 4}, cat)
	if err != nil {
		t.Fatal(err)
	}
	return nw, objs
}

// headPick concentrates 60% of queries on the first five objects — the
// paper's Zipf head — and spreads the rest uniformly.
func headPick(m int) func(r *rng.Source) int {
	return func(r *rng.Source) int {
		if r.Intn(10) < 6 {
			return r.Intn(5)
		}
		return r.Intn(m)
	}
}

// degrees returns each peer's neighbor count, in peer order.
func degrees(nw *gnet.Network) []int {
	out := make([]int, len(nw.Peers))
	for i, p := range nw.Peers {
		out[i] = len(p.Neighbors)
	}
	return out
}

// TestInertSystemMatchesRawFloods pins the inertness contract: a System
// with AdaptInterval zero issues exactly the floods a bare network would
// under the workload derivation — same successes, messages and hops —
// and leaves topology and libraries untouched.
func TestInertSystemMatchesRawFloods(t *testing.T) {
	const peers, m, queries, seed = 150, 40, 60, 11
	nw, objs := testPopulation(t, peers, m, seed)
	degreesBefore := degrees(nw)
	libBefore := make([]int, peers)
	for i, p := range nw.Peers {
		libBefore[i] = len(p.Library)
	}

	sys, err := New(nw, objs, Config{Seed: seed, TTL: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pick := headPick(m)
	got, err := sys.RunWorkload(queries, pick, 77)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the identical workload as raw floods on a freshly built twin.
	nw2, _ := testPopulation(t, peers, m, seed)
	ctx := nw2.NewFloodCtx()
	base := strategy.WorkloadStream(77)
	var found, msgs, hops int
	for i := 0; i < queries; i++ {
		r := strategy.QueryStream(base, i)
		origin := r.Intn(peers)
		obj := pick(r)
		res, err := ctx.Flood(origin, objs[obj].Name, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		msgs += res.Messages
		if len(res.Hits) > 0 {
			found++
			best := res.Hits[0]
			for _, h := range res.Hits {
				if h.Hops < best.Hops || (h.Hops == best.Hops && h.PeerID < best.PeerID) {
					best = h
				}
			}
			hops += best.Hops
		}
	}
	want := &strategy.Stats{Queries: queries}
	want.Success = float64(found) / float64(queries)
	want.MeanMessages = float64(msgs) / float64(queries)
	if found > 0 {
		want.MeanHops = float64(hops) / float64(found)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inert system diverged from raw floods:\n got %+v\nwant %+v", got, want)
	}
	if want.Success == 0 || want.Success == 1 {
		t.Fatalf("degenerate baseline success %v; population mis-sized", want.Success)
	}

	if !reflect.DeepEqual(degrees(nw), degreesBefore) {
		t.Error("inert system mutated topology")
	}
	for i, p := range nw.Peers {
		if len(p.Library) != libBefore[i] {
			t.Errorf("inert system grew peer %d library %d → %d", i, libBefore[i], len(p.Library))
		}
	}
	if len(sys.RewireLog()) != 0 {
		t.Error("inert system recorded rewires")
	}
}

// TestWorkerInvariance pins the determinism discipline: the full adaptive
// loop — probes, floods, folding, rewiring, replication — produces
// identical stats and an identical rewire log at workers 1 and 8.
func TestWorkerInvariance(t *testing.T) {
	const peers, m, queries, seed = 150, 40, 400, 13
	run := func(workers int) (*strategy.Stats, []RewireDecision) {
		nw, objs := testPopulation(t, peers, m, seed)
		cfg := DefaultConfig(seed)
		cfg.TTL = 2
		cfg.AdaptInterval = 50
		cfg.Workers = workers
		sys, err := New(nw, objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.RunWorkload(queries, headPick(m), 99)
		if err != nil {
			t.Fatal(err)
		}
		return st, sys.RewireLog()
	}
	s1, l1 := run(1)
	s8, l8 := run(8)
	if !reflect.DeepEqual(s1, s8) {
		t.Errorf("stats diverged across worker counts:\n 1: %+v\n 8: %+v", s1, s8)
	}
	if !reflect.DeepEqual(l1, l8) {
		t.Errorf("rewire logs diverged across worker counts: %d vs %d decisions", len(l1), len(l8))
	}
}

// TestAdaptationConvergesOracle is the fixed-seed oracle: under a head-heavy
// stream the adaptive system must actually rewire and replicate, its
// decisions must respect the degree caps, its rerun must reproduce the
// identical decision log, and measured steady-state success must beat the
// inert baseline on the same workload.
func TestAdaptationConvergesOracle(t *testing.T) {
	const peers, m, seed = 150, 40, 17
	cfg := DefaultConfig(seed)
	cfg.TTL = 2
	cfg.AdaptInterval = 50
	cfg.Workers = 2

	runAdaptive := func() (*strategy.Stats, []RewireDecision, *gnet.Network) {
		nw, objs := testPopulation(t, peers, m, seed)
		sys, err := New(nw, objs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunWorkload(500, headPick(m), 5); err != nil { // warmup
			t.Fatal(err)
		}
		st, err := sys.RunWorkload(200, headPick(m), 6) // measured
		if err != nil {
			t.Fatal(err)
		}
		return st, sys.RewireLog(), nw
	}
	st, log, nw := runAdaptive()

	nwB, objsB := testPopulation(t, peers, m, seed)
	inertSys, err := New(nwB, objsB, Config{Seed: seed, TTL: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inertSys.RunWorkload(500, headPick(m), 5); err != nil {
		t.Fatal(err)
	}
	baseline, err := inertSys.RunWorkload(200, headPick(m), 6)
	if err != nil {
		t.Fatal(err)
	}

	if len(log) == 0 {
		t.Fatal("adaptive run performed no rewires")
	}
	if st.Replicas == 0 {
		t.Error("adaptive run installed no replicas during measurement")
	}
	if st.Success <= baseline.Success {
		t.Errorf("adaptive success %v not above inert %v", st.Success, baseline.Success)
	}
	if st.ShortcutHits == 0 {
		t.Error("no successes came from candidate probes")
	}

	// Every decision respects the caps and the final topology respects them
	// globally (no peer above MaxDegree, none below MinDegree).
	lastRound := 0
	for _, d := range log {
		if d.Round < lastRound {
			t.Fatalf("rewire log out of round order: %+v", log)
		}
		lastRound = d.Round
		for _, id := range []int{d.Peer, d.Dropped, d.Added} {
			if id < 0 || id >= peers {
				t.Fatalf("decision references invalid peer: %+v", d)
			}
		}
	}
	for _, deg := range degrees(nw) {
		if deg > cfg.MaxDegree || deg < cfg.MinDegree {
			t.Errorf("degree %d escaped caps [%d, %d]", deg, cfg.MinDegree, cfg.MaxDegree)
		}
	}

	// Convergence is reproducible: the same seeds yield the same decisions.
	_, log2, _ := runAdaptive()
	if !reflect.DeepEqual(log, log2) {
		t.Error("identical seeds produced different rewire logs")
	}
}

func TestConfigValidation(t *testing.T) {
	nw, objs := testPopulation(t, 30, 4, 3)
	cases := []Config{
		{Seed: 1, TTL: 0},
		{Seed: 1, TTL: 2, AdaptInterval: 10, ReplScheme: "bogus"},
		{Seed: 1, TTL: 2, AdaptInterval: 10, ReplScheme: SchemeSqrt, RewireBudget: 2, MinDegree: 0},
		{Seed: 1, TTL: 2, AdaptInterval: 10, ReplScheme: SchemeSqrt, RewireBudget: 2, MinDegree: 3, MaxDegree: 2},
		{Seed: 1, TTL: 2, RewireBudget: -1},
	}
	for i, cfg := range cases {
		if _, err := New(nw, objs, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(nw, nil, Config{Seed: 1, TTL: 2}); err == nil {
		t.Error("empty object set accepted")
	}
	if _, err := New(nil, objs, Config{Seed: 1, TTL: 2}); err == nil {
		t.Error("nil network accepted")
	}
	sys, err := New(nw, objs, Config{Seed: 1, TTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunWorkload(0, func(*rng.Source) int { return 0 }, 1); err == nil {
		t.Error("zero queries accepted")
	}
}
