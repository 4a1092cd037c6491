package events

import (
	"fmt"

	"querycentric/internal/churn"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
	"querycentric/internal/strategy"
)

// RunGraphChurn simulates churn over the graph with the given placement and
// measures flood success over time. Session transitions come from
// churn.GenerateTimeline (the package's one session generator: stationary
// initial state, per-peer exponential sessions) replayed onto a liveness
// mask; every SampleEvery seconds, after the instant's transitions, origins
// are drawn among online peers, and a query succeeds when some online
// replica is reachable through online relays within the TTL. Sample
// handlers draw from one sequential stream ("churn/queries") in dispatch
// order.
func RunGraphChurn(g *overlay.Graph, p *search.Placement, cfg churn.Config) (*churn.Result, error) {
	if p.Nodes != g.N() {
		return nil, fmt.Errorf("churn: placement covers %d nodes, graph has %d", p.Nodes, g.N())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.N()
	tcfg := churn.DefaultTimelineConfig(cfg.Seed)
	tcfg.Duration = cfg.Duration
	tl, err := churn.GenerateTimeline(tcfg, n)
	if err != nil {
		return nil, err
	}
	eng, err := New(cfg.Seed, cfg.Duration)
	if err != nil {
		return nil, err
	}
	online := tl.Initial // the timeline is private to this run
	err = scheduleTimeline(eng, tl, func(ev churn.Event, _ int64) error {
		online[ev.Peer] = ev.Up
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &churn.Result{}
	qr := rng.NewNamed(cfg.Seed, "churn/queries")
	fr := overlay.NewFrontier(g)
	holders := overlay.NewVertexSet(n)

	measure := func(now int64, _ *rng.Source) error {
		onlineCount := 0
		for _, up := range online {
			if up {
				onlineCount++
			}
		}
		s := churn.Sample{Time: now, OnlineFrac: float64(onlineCount) / float64(n)}
		if onlineCount > 0 {
			var t strategy.Tally
			for q := 0; q < cfg.QueriesPerSample; q++ {
				origin := qr.Intn(n)
				for !online[origin] {
					origin = qr.Intn(n)
				}
				obj := qr.Intn(p.Objects())
				t.Add(strategy.Outcome{Found: onlineHit(fr, &holders, online, origin, churn.TTL, p.Holders[obj])})
			}
			s.SuccessRate = t.Success()
		}
		res.Samples = append(res.Samples, s)
		return nil
	}
	for t := churn.SampleEvery; t <= cfg.Duration; t += churn.SampleEvery {
		if err := eng.Schedule(t, PrioQuery, fmt.Sprintf("sample/%d", t), measure); err != nil {
			return nil, err
		}
	}
	if err := eng.Run(); err != nil {
		return nil, err
	}

	var sSum, oSum float64
	for _, s := range res.Samples {
		sSum += s.SuccessRate
		oSum += s.OnlineFrac
	}
	if len(res.Samples) > 0 {
		res.MeanSuccess = sSum / float64(len(res.Samples))
		res.MeanOnline = oSum / float64(len(res.Samples))
	}
	return res, nil
}

// onlineHit reports whether a TTL-bounded flood from origin over online
// nodes reaches a holder (or the origin holds the object). Rings only ever
// contain online vertices, so offline holders need no filtering.
func onlineHit(fr *overlay.Frontier, holders *overlay.VertexSet, online []bool, origin, ttl int, hs []int32) bool {
	holders.Reset()
	for _, h := range hs {
		if int(h) == origin {
			return true
		}
		holders.Add(h)
	}
	fr.Start(origin, ttl, online)
	for ring := fr.Next(); len(ring) > 0; ring = fr.Next() {
		for _, v := range ring {
			if holders.Has(v) {
				return true
			}
		}
	}
	return false
}
