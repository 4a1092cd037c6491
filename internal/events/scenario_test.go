package events

import (
	"encoding/json"
	"fmt"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/churn"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/parallel"
	"querycentric/internal/rng"
)

// testNetwork builds a small populated two-tier overlay (fresh per call —
// scenarios mutate topology).
func testNetwork(t *testing.T, seed uint64) *gnet.Network {
	t.Helper()
	cat, err := catalog.Build(catalog.Config{
		Seed:                seed,
		Peers:               120,
		UniqueObjects:       2500,
		ReplicaAlpha:        2.45,
		VariantProb:         0.08,
		NonSpecificPeerFrac: 0.05,
	})
	if err != nil {
		t.Fatalf("catalog.Build: %v", err)
	}
	nw, err := gnet.NewFromCatalog(gnet.DefaultConfig(seed), cat)
	if err != nil {
		t.Fatalf("NewFromCatalog: %v", err)
	}
	return nw
}

// shortScenario is a CI-scale schedule: one simulated hour in six
// ten-minute windows, 40 TTL-3 known-item queries per window over four
// batches, one-minute maintenance rounds.
func shortScenario(kind Kind, seed uint64) ScenarioConfig {
	rp := gnet.DefaultRepairConfig(seed)
	rp.PingInterval = 60
	return ScenarioConfig{
		Kind:             kind,
		Seed:             seed,
		Duration:         3600,
		Window:           600,
		QueriesPerWindow: 40,
		BatchesPerWindow: 4,
		TTL:              3,
		Repair:           rp,
	}
}

func runScenario(t *testing.T, nw *gnet.Network, cfg ScenarioConfig) *ScenarioResult {
	t.Helper()
	s, err := NewScenario(nw, cfg)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestScenarioConfigValidate(t *testing.T) {
	if err := shortScenario(SteadyState, 1).Validate(); err != nil {
		t.Fatalf("test schedule invalid: %v", err)
	}
	bad := []func(*ScenarioConfig){
		func(c *ScenarioConfig) { c.Duration = 0 },
		func(c *ScenarioConfig) { c.Window = 0 },
		func(c *ScenarioConfig) { c.Duration = 3601 }, // not a whole window count
		func(c *ScenarioConfig) { c.QueriesPerWindow = 0 },
		func(c *ScenarioConfig) { c.BatchesPerWindow = 0 },
		func(c *ScenarioConfig) { c.TTL = 0 },
		func(c *ScenarioConfig) { c.Repair.PingInterval = 0 },
		func(c *ScenarioConfig) { c.Bursts = []faults.Burst{{Time: 0, Frac: 0.5}} },
		func(c *ScenarioConfig) { c.Flash = &FlashConfig{Start: 100, End: 50, Frac: 0.5, Boost: 2} },
		func(c *ScenarioConfig) {
			tl := churn.DefaultTimelineConfig(1)
			tl.PoliteFrac = 1.5
			c.Churn = &tl
		},
	}
	for i, mutate := range bad {
		c := shortScenario(SteadyState, 1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

// staticSuccess is the oracle: the static trial engine's measurement loop
// (independent known-item floods on the untouched overlay), on its own
// stream family.
func staticSuccess(t *testing.T, nw *gnet.Network, seed uint64, queries, ttl int) float64 {
	t.Helper()
	base := rng.NewNamed(seed, "events/test/static-oracle")
	found, err := parallel.MapWith(parallel.Workers(0), queries,
		func() *gnet.FloodCtx { return nw.NewFloodCtx() },
		func(ctx *gnet.FloodCtx, q int) (bool, error) {
			r := base.Derive(fmt.Sprintf("trial/%d", q))
			n := len(nw.Peers)
			origin, target := r.Intn(n), r.Intn(n)
			for len(nw.Peers[target].Library) == 0 || target == origin {
				target = r.Intn(n)
			}
			lib := nw.Peers[target].Library
			fr, err := ctx.Flood(origin, lib[r.Intn(len(lib))].Name, ttl, r)
			return err == nil && fr.TotalResults > 0, nil
		})
	if err != nil {
		t.Fatalf("static floods: %v", err)
	}
	hits := 0
	for _, f := range found {
		if f {
			hits++
		}
	}
	return float64(hits) / float64(queries)
}

// TestSteadyStateMatchesStaticOracle is the acceptance gate for the event
// engine: with no churn and no faults, windowed success must agree with
// the static trial engine within the documented tolerance (0.05 — both
// sides are binomial samples of the same population success rate).
func TestSteadyStateMatchesStaticOracle(t *testing.T) {
	const seed = 31
	cfg := shortScenario(SteadyState, seed)
	res := runScenario(t, testNetwork(t, seed), cfg)

	if len(res.Windows) != 6 {
		t.Fatalf("got %d windows, want 6", len(res.Windows))
	}
	sum := 0.0
	for _, w := range res.Windows {
		if w.Queries == 0 {
			t.Fatalf("window [%d,%d) measured no queries", w.Start, w.End)
		}
		if w.OnlineFrac != 1 {
			t.Fatalf("steady state lost peers: online frac %v", w.OnlineFrac)
		}
		if w.Partitions != 1 {
			t.Fatalf("steady state fragmented: %d partitions", w.Partitions)
		}
		sum += w.Success
	}
	eventMean := sum / float64(len(res.Windows))

	oracle := staticSuccess(t, testNetwork(t, seed), seed, 240, cfg.TTL)
	if diff := eventMean - oracle; diff > 0.05 || diff < -0.05 {
		t.Fatalf("event-engine steady-state success %.3f vs static oracle %.3f: |diff| > 0.05", eventMean, oracle)
	}
}

// TestScenarioDeterministicAndWorkerInvariant marshals the full windowed
// result and requires byte-identical output across a rerun and across
// worker counts — the schedule-invariance contract.
func TestScenarioDeterministicAndWorkerInvariant(t *testing.T) {
	run := func(workers int) []byte {
		cfg := shortScenario(FaultRecovery, 47)
		cfg.Bursts = []faults.Burst{{Time: 1500, Frac: 0.3}}
		cfg.Workers = workers
		res := runScenario(t, testNetwork(t, 47), cfg)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	w1a, w1b, w8 := run(1), run(1), run(8)
	if string(w1a) != string(w1b) {
		t.Fatal("identical runs diverged")
	}
	if string(w1a) != string(w8) {
		t.Fatal("worker count changed windowed scenario output")
	}
}

// TestFaultRecoveryCurve drives the headline scenario: a correlated 30%
// crash burst must dent windowed success, and the maintained overlay must
// climb back while the unmaintained one stays degraded.
func TestFaultRecoveryCurve(t *testing.T) {
	const seed = 53
	run := func(repair bool) *ScenarioResult {
		cfg := shortScenario(FaultRecovery, seed)
		cfg.Bursts = []faults.Burst{{Time: 1200, Frac: 0.3}}
		cfg.Repair.Repair = repair
		return runScenario(t, testNetwork(t, seed), cfg)
	}
	with, without := run(true), run(false)

	pre := (with.Windows[0].Success + with.Windows[1].Success) / 2
	last := len(with.Windows) - 1
	recovered := (with.Windows[last-1].Success + with.Windows[last].Success) / 2
	degraded := (without.Windows[last-1].Success + without.Windows[last].Success) / 2

	if pre < 0.5 {
		t.Fatalf("pre-burst success %.3f implausibly low", pre)
	}
	for _, res := range []*ScenarioResult{with, without} {
		if f := res.Windows[2].OnlineFrac; f > 0.75 || f < 0.6 {
			t.Fatalf("post-burst online frac %.3f, want ~0.7", f)
		}
	}
	if recovered < degraded {
		t.Fatalf("repair arm (%.3f) ended below no-repair arm (%.3f)", recovered, degraded)
	}
	if recovered < 0.9*pre {
		t.Fatalf("repaired success %.3f never recovered toward pre-burst %.3f", recovered, pre)
	}
	if with.RepairStats.RepairSuccesses == 0 {
		t.Fatal("repair arm recorded no successful repairs")
	}
	if without.RepairStats.RepairSuccesses != 0 {
		t.Fatal("no-repair arm repaired edges")
	}
	// The burst opens degree deficits that maintenance then closes: the
	// repair-latency metric must have fired after the burst.
	repairedAfterBurst := 0
	for _, w := range with.Windows[2:] {
		repairedAfterBurst += w.Repaired
	}
	if repairedAfterBurst == 0 {
		t.Fatal("no degree restorations recorded after the burst")
	}
}

// TestFlashCrowdShapesLoad checks the volume boost and the windowed series
// plumbing into the obs plane.
func TestFlashCrowdShapesLoad(t *testing.T) {
	const seed = 61
	cfg := shortScenario(FlashCrowd, seed)
	cfg.Flash = &FlashConfig{Start: 1200, End: 2400, Frac: 0.6, Boost: 3}

	nw := testNetwork(t, seed)
	s, err := NewScenario(nw, cfg)
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	reg := obs.NewRegistry()
	wl := obs.NewWindowLog()
	s.Instrument(reg, wl)
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	base := res.Windows[0].Queries
	for _, w := range res.Windows {
		inFlash := w.Start >= cfg.Flash.Start && w.End <= cfg.Flash.End
		if inFlash && w.Queries < 2*base {
			t.Fatalf("flash window [%d,%d) saw %d queries, want >= %d", w.Start, w.End, w.Queries, 2*base)
		}
		if !inFlash && w.Queries != base {
			t.Fatalf("off-flash window [%d,%d) saw %d queries, want %d", w.Start, w.End, w.Queries, base)
		}
	}

	series := map[string]int{}
	for _, ws := range wl.Snapshot() {
		series[ws.Name] = len(ws.Points)
	}
	for _, name := range []string{"events_success", "events_msg_per_query", "events_partitions", "events_queries"} {
		if series[name] != len(res.Windows) {
			t.Fatalf("series %q has %d points, want %d (all: %v)", name, series[name], len(res.Windows), series)
		}
	}
	snap := map[string]int64{}
	for _, m := range reg.Snapshot().Metrics {
		snap[m.Name] = m.Value
	}
	if snap["events_executed_total"] != int64(res.EventsProcessed) {
		t.Fatalf("events_executed_total = %d, want %d", snap["events_executed_total"], res.EventsProcessed)
	}
}

// TestScenarioChurnTimelineApplied checks churn transitions route through
// the engine: online fraction moves and churn events are counted.
func TestScenarioChurnTimelineApplied(t *testing.T) {
	const seed = 83
	cfg := shortScenario(SteadyState, seed)
	tl := churn.DefaultTimelineConfig(seed)
	cfg.Churn = &tl
	res := runScenario(t, testNetwork(t, seed), cfg)
	if res.ChurnEvents == 0 {
		t.Fatal("timeline generated no events")
	}
	moved := false
	for _, w := range res.Windows {
		if w.OnlineFrac != 1 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("churn never took a peer offline")
	}
}
