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
// measures flood success over time. Origins are drawn among online peers; a
// query succeeds when some online replica is reachable through online relays
// within the TTL.
//
// Session transitions and sample points share one priority, so instants
// tie-break purely by scheduling order, and every handler draws from one of
// two sequential streams captured here ("churn/sessions", "churn/queries")
// rather than from its per-event derived stream — the draw order is the
// dispatch order. Event names are therefore labels only and repeat.
func RunGraphChurn(g *overlay.Graph, p *search.Placement, cfg churn.Config) (*churn.Result, error) {
	if p.Nodes != g.N() {
		return nil, fmt.Errorf("churn: placement covers %d nodes, graph has %d", p.Nodes, g.N())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng, err := New(cfg.Seed, cfg.Duration)
	if err != nil {
		return nil, err
	}

	n := g.N()
	online := make([]bool, n)
	r := rng.NewNamed(cfg.Seed, "churn/sessions")

	// Session state machines: initialize from the stationary distribution
	// and schedule transitions.
	stationary := churn.MeanOnline / (churn.MeanOnline + churn.MeanOffline)
	var schedule func(v int) error
	schedule = func(v int) error {
		var d int64
		if online[v] {
			d = 1 + int64(r.ExpFloat64()*churn.MeanOnline)
		} else {
			d = 1 + int64(r.ExpFloat64()*churn.MeanOffline)
		}
		return eng.Schedule(eng.Now()+d, PrioChurn, "churn/session", func(int64, *rng.Source) error {
			online[v] = !online[v]
			return schedule(v)
		})
	}
	for v := 0; v < n; v++ {
		online[v] = r.Bool(stationary)
		if err := schedule(v); err != nil {
			return nil, err
		}
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
		if err := eng.Schedule(t, PrioChurn, "churn/sample", measure); err != nil {
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
