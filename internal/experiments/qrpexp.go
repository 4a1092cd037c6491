package experiments

import (
	"fmt"

	"querycentric/internal/catalog"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
	"querycentric/internal/snapshot"
	"querycentric/internal/strategy"
	"querycentric/internal/terms"
)

// QRPResult shows what deployed query routing can and cannot fix: QRP
// eliminates wasted last-hop messages, but it routes on *file* terms, so it
// cannot raise the success rate of a workload whose terms mismatch the
// annotations — the paper's argument, in protocol form.
type QRPResult struct {
	Peers          int
	Queries        int
	PlainSuccess   float64
	PlainMessages  int
	QRPSuccess     float64
	QRPMessages    int
	MessageSavings float64 // 1 - QRPMessages/PlainMessages
}

// QRPEffect floods one workload twice over the same wire-level network —
// without and with QRP route tables — and compares success and cost. The
// workload mixes queries derived from real file names (findable) with
// query-vocabulary terms (the mismatched majority, per Figure 7).
func QRPEffect(e *Env) (*QRPResult, error) {
	peers := max(e.P.GnutellaPeers/2, 200)
	pop, err := snapshot.OpenPopulation("", "", snapshot.BuildConfig{
		Catalog: catalog.Config{Seed: e.Seed + 70, Peers: peers, UniqueObjects: peers * 20, ReplicaAlpha: 2.45},
		Network: gnet.DefaultConfig(e.Seed + 70),
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	defer pop.Close()
	nw, err := pop.Network()
	if err != nil {
		return nil, fmt.Errorf("experiments: restoring network: %w", err)
	}
	e.instrumentNetwork(nw)

	// Build the query list: 30% findable (two tokens of a random shared
	// name), 70% mismatched (query-vocabulary words absent from content).
	qr := rng.NewNamed(e.Seed, "experiments/qrp-queries")
	nQueries := max(e.P.SimTrials, 150)
	queries := make([]string, 0, nQueries)
	for len(queries) < nQueries {
		if qr.Bool(0.3) {
			p := nw.Peers[qr.Intn(peers)]
			if len(p.Library) == 0 {
				continue
			}
			toks := terms.Tokenize(p.Library[qr.Intn(len(p.Library))].Name)
			if len(toks) < 2 {
				continue
			}
			i := qr.Intn(len(toks) - 1)
			queries = append(queries, toks[i]+" "+toks[i+1])
		} else {
			queries = append(queries, "queryonly"+string(rune('a'+qr.Intn(26)))+
				" vocabword"+string(rune('a'+qr.Intn(26))))
		}
	}

	// Each query floods under its own derived stream "trial/i" on a
	// per-worker context, so both passes (plain, QRP) are byte-identical at
	// any worker count.
	run := func(seed uint64) (strategy.Tally, error) {
		return strategy.RunTrials(e.workers(), 0, len(queries), rng.NewNamed(seed, "experiments/qrp-run"), "trial/", nw.NewFloodCtx,
			func(ctx *gnet.FloodCtx, i int, r *rng.Source) (strategy.Outcome, error) {
				res, err := ctx.Flood(i%peers, queries[i], 4, r)
				if err != nil {
					return strategy.Outcome{}, err
				}
				return strategy.Outcome{Found: res.TotalResults > 0, Messages: res.Messages}, nil
			})
	}

	plain, err := run(e.Seed + 71)
	if err != nil {
		return nil, err
	}
	if err := nw.EnableQRP(16); err != nil {
		return nil, err
	}
	routed, err := run(e.Seed + 71)
	if err != nil {
		return nil, err
	}
	out := &QRPResult{
		Peers: peers, Queries: len(queries),
		PlainSuccess: plain.Success(), PlainMessages: plain.Messages,
		QRPSuccess: routed.Success(), QRPMessages: routed.Messages,
	}
	if out.PlainMessages > 0 {
		out.MessageSavings = 1 - float64(out.QRPMessages)/float64(out.PlainMessages)
	}
	return out, nil
}
