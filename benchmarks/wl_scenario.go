package main

import (
	"fmt"
	"time"

	"querycentric/internal/capacity"
	"querycentric/internal/churn"
	"querycentric/internal/events"
	"querycentric/internal/faults"
	"querycentric/internal/gnet"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// scenarioInst is overload_scenario: one flash-crowd scenario over a
// catalog network with QRP tables, a 5% message-loss fault plane, churn, a
// 10% crash burst, repair, and TTL-aware shedding with circuit breakers.
// A scenario mutates its network, so every repetition builds a fresh one.
type scenarioInst struct {
	cfg   events.ScenarioConfig
	scen  *events.Scenario
	reg   *obs.Registry // attached in a traced run only
	res   *events.ScenarioResult
	stats capacity.Stats
}

func scenarioConfig(b *bench) events.ScenarioConfig {
	seed := b.opts.seed
	dur := b.sz.scenDuration
	repair := gnet.DefaultRepairConfig(seed)
	repair.PingInterval = 300
	ccfg := capacity.DefaultConfig(seed)
	ccfg.ServiceCostMs = 4000
	ccfg.Policy = capacity.TTLAware
	ccfg.Breakers = true
	tl := churn.DefaultTimelineConfig(seed)
	return events.ScenarioConfig{
		Kind: events.FlashCrowd, Seed: seed,
		Duration: dur, Window: 600,
		QueriesPerWindow: b.sz.scenQueriesPerWindow, BatchesPerWindow: 4,
		TTL: 3, Workers: b.workers,
		Repair:   repair,
		Churn:    &tl,
		Bursts:   []faults.Burst{{Time: dur / 2, Frac: 0.10}},
		Flash:    &events.FlashConfig{Start: dur / 4, End: dur / 2, Frac: 0.5, Boost: 3},
		Capacity: &ccfg, QueryRetries: 1, AnswerDeadlineS: 600,
	}
}

func setupScenario(b *bench) (instance, error) {
	si := &scenarioInst{cfg: scenarioConfig(b)}
	return si, si.reset(b)
}

// reset builds a fresh gated network and schedules the scenario on it.
func (si *scenarioInst) reset(b *bench) error {
	_, nw, err := buildNetwork(b, b.sz.scenPeers, b.sz.scenObjects)
	if err != nil {
		return err
	}
	if err := b.tr.do("gnet.EnableQRP", func() error { return nw.EnableQRP(16) }); err != nil {
		return err
	}
	nw.SetFaults(faults.New(faults.Config{Seed: b.opts.seed, MessageLoss: 0.05}))

	// Warm-up: plain floods through the gated network, before the scenario
	// attaches its capacity plane and starts mutating topology.
	fc := nw.NewFloodCtx()
	r := rng.NewNamed(b.opts.seed, "bench/warmup")
	for i := 0; i < b.sz.floodWarmup; i++ {
		p := nw.Peers[r.Intn(len(nw.Peers))]
		if len(p.Library) == 0 {
			continue
		}
		if _, err := fc.Flood(r.Intn(len(nw.Peers)), p.Library[0].Name, 3, r); err != nil {
			return err
		}
	}

	si.reg = nil
	if b.opts.trace {
		// The maintainer takes its counter handles at construction.
		si.reg = obs.NewRegistry()
		nw.Instrument(si.reg, nil)
	}
	err = b.tr.do("events.NewScenario", func() (err error) {
		si.scen, err = events.NewScenario(nw, si.cfg)
		return err
	})
	if err != nil {
		return err
	}
	if si.reg != nil {
		si.scen.Instrument(si.reg, nil)
	}
	return nil
}

// measure runs the scenario to its horizon. A retried query counts once.
func (si *scenarioInst) measure(b *bench) (*sample, error) {
	start := time.Now()
	sp := b.tr.begin("events.Run", -1)
	res, err := si.scen.Run()
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	s := &sample{wall: time.Since(start)}
	si.res, si.stats = res, si.scen.CapacityStats()
	d := newDigest()
	d.ints(int(res.EventsProcessed), res.ChurnEvents, len(res.Windows))
	for _, w := range res.Windows {
		s.ops += w.Queries
		d.ints(w.Queries, w.Hits, int(w.Messages), w.Partitions, w.Repaired, int(w.Shed), int(w.BreakerOpens))
		d.floats(w.OnlineFrac, w.MeanDegree)
	}
	rs := res.RepairStats
	d.ints(rs.Departures, rs.Arrivals, rs.PingsSent, rs.PongsReceived, rs.PingsLost, rs.FailuresDetected,
		rs.ByesReceived, rs.RepairAttempts, rs.RepairSuccesses, rs.HostRejected)
	d.ints(int(si.stats.Enqueued), int(si.stats.Shed), int(si.stats.Served), int(si.stats.BreakerOpens), int(si.stats.MaxDepth))
	s.digest = d.sum()
	return s, nil
}

func (si *scenarioInst) shedFrac() float64 {
	if att := si.stats.Enqueued + si.stats.Shed; att > 0 {
		return float64(si.stats.Shed) / float64(att)
	}
	return 0
}

func (si *scenarioInst) verify(b *bench, s *sample) []string {
	var fails []string
	if want := int(si.cfg.Duration / si.cfg.Window); len(si.res.Windows) != want {
		fails = append(fails, fmt.Sprintf("scenario closed %d windows, want %d", len(si.res.Windows), want))
	}
	if sf := si.shedFrac(); sf <= 0 || sf >= 1 {
		fails = append(fails, fmt.Sprintf("scenario shed_frac %.4f, want strictly between 0 and 1", sf))
	}
	return fails
}

func (si *scenarioInst) layers(b *bench, s *sample) error {
	agg := b.tr.aggregate()
	b.set("catalog.build_s", spanMeanS(agg, "catalog.Build"))
	b.set("gnet.network_build_s", spanMeanS(agg, "gnet.NewFromCatalog"))
	b.set("gnet.index_build_s", spanMeanS(agg, "gnet.BuildIndexes"))
	b.set("gnet.qrp_build_s", spanMeanS(agg, "gnet.EnableQRP"))
	b.set("events.run_s", spanMeanS(agg, "events.Run"))

	res := si.res
	var msgs int64
	var succ float64
	for _, w := range res.Windows {
		msgs += w.Messages
		succ += w.Success
	}
	b.set("events.dispatched", float64(res.EventsProcessed))
	b.set("events.queries", float64(s.ops))
	b.set("events.msgs_per_query", float64(msgs)/float64(s.ops))
	b.set("events.success_mean", succ/float64(len(res.Windows)))
	b.set("churn.timeline_events", float64(res.ChurnEvents))
	b.set("capacity.enqueued", float64(si.stats.Enqueued))
	b.set("capacity.shed_frac", si.shedFrac())
	b.set("capacity.breaker_opens", float64(si.stats.BreakerOpens))
	b.set("capacity.max_depth", float64(si.stats.MaxDepth))
	b.set("gnet.maint.pings", float64(si.reg.Counter("gnet_maint_pings_sent_total").Value()))
	b.set("gnet.maint.repairs", float64(si.reg.Counter("gnet_maint_repair_successes_total").Value()))
	b.set("gnet.hostcache.rejected", float64(si.reg.Counter("gnet_hostcache_rejected_total").Value()))

	// The event queue alone: the same number of events with no-op
	// handlers, so a queue rewrite cannot claim a scenario gain.
	sp := b.tr.begin("probe.events", -1)
	n := int(res.EventsProcessed)
	eng, err := events.New(b.opts.seed, int64(n))
	if err != nil {
		return err
	}
	noop := func(int64, *rng.Source) error { return nil }
	prios := []events.Priority{events.PrioChurn, events.PrioFault, events.PrioMaint, events.PrioQuery, events.PrioWindow}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := eng.Schedule(int64(i)+1, prios[i%len(prios)], fmt.Sprintf("ev/%d", i), noop); err != nil {
			return err
		}
	}
	if err := eng.Run(); err != nil {
		return err
	}
	b.set("events.queue_ns_per_event", float64(time.Since(t0))/float64(n))
	b.tr.end(sp)

	sp = b.tr.begin("probe.gates", -1)
	defer b.tr.end(sp)
	peers := b.sz.scenPeers
	pl, err := capacity.New(*si.cfg.Capacity, peers)
	if err != nil {
		return err
	}
	admitted := 0
	t0 = time.Now()
	for i := 0; i < b.sz.probeOps; i++ {
		if pl.Admit(uint64(i), i%peers, 0, 2, 3) {
			admitted++
		}
	}
	b.set("capacity.admit_ns", float64(time.Since(t0))/float64(b.sz.probeOps))
	fp := faults.New(faults.Config{Seed: b.opts.seed, MessageLoss: 0.05})
	lost := 0
	t0 = time.Now()
	for i := 0; i < b.sz.probeOps; i++ {
		if fp.MessageLossAt(uint64(i), i%peers, 0) {
			lost++
		}
	}
	b.set("faults.loss_at_ns", float64(time.Since(t0))/float64(b.sz.probeOps))
	if admitted == 0 || lost == 0 {
		return fmt.Errorf("gate probes degenerate: %d admitted, %d lost", admitted, lost)
	}
	return nil
}

func (si *scenarioInst) close() error { return nil }
