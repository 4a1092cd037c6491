package events

import (
	"fmt"

	"querycentric/internal/churn"
	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
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
	stationary := cfg.MeanOnline / (cfg.MeanOnline + cfg.MeanOffline)
	var schedule func(v int) error
	schedule = func(v int) error {
		var d int64
		if online[v] {
			d = 1 + int64(r.ExpFloat64()*cfg.MeanOnline)
		} else {
			d = 1 + int64(r.ExpFloat64()*cfg.MeanOffline)
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
	mark := make([]int64, n)
	for i := range mark {
		mark[i] = -1
	}
	var epoch int64

	measure := func(now int64, _ *rng.Source) error {
		onlineCount := 0
		for _, up := range online {
			if up {
				onlineCount++
			}
		}
		s := churn.Sample{Time: now, OnlineFrac: float64(onlineCount) / float64(n)}
		if onlineCount > 0 {
			hits := 0
			for q := 0; q < cfg.QueriesPerSample; q++ {
				origin := qr.Intn(n)
				for !online[origin] {
					origin = qr.Intn(n)
				}
				obj := qr.Intn(p.Objects())
				epoch++
				if aliveFlood(g, online, mark, epoch, origin, cfg.TTL, p.Holders[obj]) {
					hits++
				}
			}
			s.SuccessRate = float64(hits) / float64(cfg.QueriesPerSample)
		}
		res.Samples = append(res.Samples, s)
		return nil
	}
	for t := cfg.SampleEvery; t <= cfg.Duration; t += cfg.SampleEvery {
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

// aliveFlood runs a TTL-bounded flood from origin over online nodes only,
// returning whether any online holder was reached (or the origin holds it).
func aliveFlood(g *overlay.Graph, online []bool, mark []int64, epoch int64, origin, ttl int, holders []int32) bool {
	for _, h := range holders {
		if int(h) == origin {
			return true
		}
	}
	holderSet := make(map[int32]struct{}, len(holders))
	for _, h := range holders {
		if online[h] {
			holderSet[h] = struct{}{}
		}
	}
	if len(holderSet) == 0 {
		return false
	}
	mark[origin] = epoch
	frontier := make([]int32, 0, 16)
	for _, nb := range g.Neighbors(origin) {
		if online[nb] {
			frontier = append(frontier, nb)
		}
	}
	var next []int32
	for hop := 1; hop <= ttl && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			if mark[v] == epoch {
				continue
			}
			mark[v] = epoch
			if _, ok := holderSet[v]; ok {
				return true
			}
			if hop == ttl || !g.Ultra(int(v)) {
				continue
			}
			for _, nb := range g.Neighbors(int(v)) {
				if online[nb] && mark[nb] != epoch {
					next = append(next, nb)
				}
			}
		}
		frontier, next = next, frontier
	}
	return false
}
