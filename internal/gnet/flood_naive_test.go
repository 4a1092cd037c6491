package gnet

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/dict"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/rng"
)

// floodNaive is the pre-optimisation flood kept as a reference oracle and
// perf baseline: a fresh `seen` map per flood, one Decode per delivered
// envelope, one Encode per forwarding peer, a per-edge QRP hash of the
// criteria, and a linear scan of every reached library (linearMatch) instead
// of the holder and posting indexes under test. Fault and capacity semantics
// match the optimised path (per-flood salted loss schedule, liveness
// snapshot, per-flood admission attempt counts against the phase-frozen
// queues) so results must be byte-identical.
func floodNaive(nw *Network, origin int, criteria string, ttl int, r *rng.Source) (*FloodResult, error) {
	if origin < 0 || origin >= len(nw.Peers) {
		return nil, fmt.Errorf("gnet: origin %d out of range", origin)
	}
	if ttl < 1 || ttl > 255 {
		return nil, fmt.Errorf("gnet: TTL %d out of range", ttl)
	}
	ga, gb := r.Uint64(), r.Uint64()
	guid := gmsg.GUIDFromUint64s(ga, gb)
	salt := ga ^ bits.RotateLeft64(gb, 32)
	q := &gmsg.Message{
		Header: gmsg.Header{GUID: guid, Type: gmsg.TypeQuery, TTL: byte(ttl)},
		Query:  &gmsg.Query{Criteria: criteria},
	}
	res := &FloodResult{}
	seen := map[int]bool{origin: true}
	tables := map[int]routeTable{} // route tables rebuilt so far (qrpAllows)
	lossAttempts := map[int]uint64{}
	plane := nw.faults
	alive := plane.LivenessSnapshot()
	lossy := plane.Config().MessageLoss > 0
	lost := func(to int) bool {
		if !lossy {
			return false
		}
		n := lossAttempts[to]
		lossAttempts[to] = n + 1
		return plane.MessageLossAt(salt, to, n)
	}
	cp := nw.capacity
	capAttempts := map[int]uint64{}
	shed := func(to int, copyTTL byte) bool {
		if !cp.Enabled() {
			return false
		}
		n := capAttempts[to]
		capAttempts[to] = n + 1
		return !cp.Admit(salt, to, n, int(copyTTL), ttl)
	}

	type envelope struct {
		to  int
		raw []byte
	}
	frontier := make([]envelope, 0, len(nw.Peers[origin].Neighbors))
	raw, err := gmsg.Encode(q)
	if err != nil {
		return nil, err
	}
	for _, nb := range nw.Peers[origin].Neighbors {
		if cp.Blocked(nb) {
			continue
		}
		frontier = append(frontier, envelope{to: nb, raw: raw})
		res.Messages++
	}

	for len(frontier) > 0 {
		var next []envelope
		for _, env := range frontier {
			if seen[env.to] {
				continue
			}
			if (alive != nil && env.to < len(alive) && !alive[env.to]) || lost(env.to) {
				continue
			}
			m, _, err := gmsg.Decode(env.raw)
			if err != nil {
				return nil, fmt.Errorf("gnet: hop decode: %w", err)
			}
			if shed(env.to, m.Header.TTL) {
				continue
			}
			seen[env.to] = true
			res.PeersReached++
			peer := nw.Peers[env.to]
			if files := linearMatch(peer.Library, m.Query.Criteria); len(files) > 0 {
				hit := Hit{PeerID: env.to, Hops: int(m.Header.Hops) + 1}
				for _, f := range files {
					hit.Files = append(hit.Files, gmsg.Result{
						FileIndex: f.Index, FileSize: f.Size, FileName: f.Name,
					})
				}
				res.Hits = append(res.Hits, hit)
				res.TotalResults += len(files)
			}
			if m.Header.TTL <= 1 {
				continue
			}
			if nw.Config.UltrapeerFrac > 0 && !peer.Ultrapeer {
				continue
			}
			fwd := *m
			fwd.Header.TTL--
			fwd.Header.Hops++
			fraw, err := gmsg.Encode(&fwd)
			if err != nil {
				return nil, err
			}
			for _, nb := range peer.Neighbors {
				if seen[nb] {
					continue
				}
				// Route tables trim only the last hop: a recipient that would
				// relay the query on is never filtered.
				lastHop := m.Header.TTL <= 2 || (nw.Config.UltrapeerFrac > 0 && !nw.Peers[nb].Ultrapeer)
				if (lastHop && !nw.qrpAllows(nb, criteria, tables)) || cp.Blocked(nb) {
					continue
				}
				next = append(next, envelope{to: nb, raw: fraw})
				res.Messages++
			}
		}
		frontier = next
	}
	return res, nil
}

// qrpAllows is the reference's per-edge routing test: may a query be
// forwarded to peer id under the current route tables? Always true when QRP
// is off, for a browse, or when id pushed no table (an ultrapeer of a
// two-tier network); otherwise the peer's table is rebuilt from its library
// (leafTable, once per flood: tables holds those rebuilt so far) and the
// criteria tokenized and hashed afresh against it, on every edge.
func (nw *Network) qrpAllows(id int, criteria string, tables map[int]routeTable) bool {
	if nw.qrp == nil || criteria == BrowseCriteria || nw.Peers[id].Ultrapeer {
		return true
	}
	t, ok := tables[id]
	if !ok {
		t = leafTable(nw.Peers[id].Library, nw.qrp.bits)
		tables[id] = t
	}
	return t.matches(criteria)
}

// TestFloodMatchesNaiveReference cross-checks the optimised FloodCtx — the
// holder-index gate in front of the per-peer probe included — against the
// map-based, probe-every-peer reference: over networks of several sizes,
// without a holder index (every reached peer is probed) and with one built
// (gated floods), under every gate a flood can carry, for every shape of
// query the gate treats differently, and again after AddFile has grown
// libraries and dropped the holder index.
func TestFloodMatchesNaiveReference(t *testing.T) {
	for _, mode := range []string{"plain", "qrp", "lossy", "qrp+lossy", "capacity", "paths"} {
		t.Run(mode, func(t *testing.T) {
			for _, v := range []struct {
				peers int
				built bool
			}{{100, false}, {100, true}, {45, true}} {
				nw := populatedNet(t, v.peers)
				if v.built {
					if err := nw.BuildIndexes(2); err != nil {
						t.Fatal(err)
					}
				}
				if strings.Contains(mode, "qrp") {
					if err := nw.EnableQRP(16); err != nil {
						t.Fatal(err)
					}
				}
				if strings.Contains(mode, "lossy") {
					nw.SetFaults(faults.New(faults.Config{Seed: 11, MessageLoss: 0.2, PeerDepart: 0.1}))
				}
				var plane *capacity.Plane
				if mode == "capacity" {
					cfg := capacity.DefaultConfig(11)
					cfg.QueueDepth, cfg.Policy, cfg.Breakers = 6, capacity.TTLAware, true
					var err error
					if plane, err = capacity.New(cfg, v.peers); err != nil {
						t.Fatal(err)
					}
					nw.SetCapacity(plane)
				}
				ctx := nw.NewFloodCtx()
				ctx.SetPathCapture(mode == "paths")
				common := commonestTerm(t, v.peers)
				trial, now := 0, int64(0)
				check := func(origin int, criteria string) {
					t.Helper()
					trial++
					want, err := floodNaive(nw, origin, criteria, 4, rng.New(uint64(trial)))
					if err != nil {
						t.Fatal(err)
					}
					got, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(trial)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s peers=%d built=%v trial %d (%q): optimised flood diverged from reference:\n%+v\nvs\n%+v",
							mode, v.peers, v.built, trial, criteria, got, want)
					}
					for _, h := range got.Hits {
						if mode == "paths" && ctx.AnswerPath(h.PeerID) == nil {
							t.Fatalf("no answer path to hit peer %d", h.PeerID)
						}
					}
					if plane != nil && trial%8 == 0 {
						// Fold the attempts into queue depth so later floods
						// meet real backlog, shedding and open breakers.
						now += 20
						plane.Commit(now)
						plane.Advance(now)
					}
				}
				sweep := func() {
					for i := 0; i < 5; i++ {
						origin := i * 7 % len(nw.Peers)
						name := fileOf(t, nw, i*13+2)
						toks := TokenizeQuery(name)
						for _, criteria := range []string{
							name, // every term known
							strings.Join(toks[:min(2, len(toks))], " "), // a short query: longer holder lists
							name + " zqxjkwv",    // one term no dictionary knows
							"!! ?",               // keywordless
							name + " " + toks[0], // duplicate tokens
							common,               // rarest term held by a large share: no gate
						} {
							check(origin, criteria)
						}
					}
				}
				sweep()
				// Grow libraries after the build: a name of known terms
				// (re-encoded against the dictionary) and one with a term the
				// dictionary never saw (the network is re-interned). Both must
				// be found, and nothing else may move.
				known, novel := fileOf(t, nw, 5), "zzqx unseen replica token"
				n := len(nw.Peers)
				for _, id := range []int{3, n / 2, n - 1} {
					if err := nw.AddFile(id, known, 4096); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{0, n / 2, n - 2} { // n/2 gets both
					if err := nw.AddFile(id, novel, 1); err != nil {
						t.Fatal(err)
					}
				}
				for origin := 0; origin < len(nw.Peers); origin += 29 {
					check(origin, known)
					check(origin, novel)
					check(origin, "unseen zzqx")
					check(origin, novel+" "+known)
				}
				sweep()
				if plane != nil && plane.Stats().Shed == 0 {
					t.Fatal("capacity mode never shed a copy; tighten QueueDepth")
				}
			}
		})
	}
}

// commonestTerm returns the term held by the most peers of populatedNet(t,
// peers), and insists it is held widely enough that a flood for it declines
// to decode its holder list.
func commonestTerm(t *testing.T, peers int) string {
	t.Helper()
	nw := populatedNet(t, peers)
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	h := &nw.holders
	best := dict.TermID(0)
	for id := range h.off[:len(h.off)-1] {
		if len(h.list(dict.TermID(id))) > len(h.list(best)) {
			best = dict.TermID(id)
		}
	}
	if len(h.list(best))*holderDenseShare <= peers {
		t.Fatalf("commonest term %q is held by too few of %d peers to be dense", nw.dict.Term(best), peers)
	}
	return nw.dict.Term(best)
}

// BenchmarkFloodNaive is the pre-optimisation baseline for
// BenchmarkFloodCtx (same network, same query stream).
func BenchmarkFloodNaive(b *testing.B) {
	for _, peers := range []int{500, 2000} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			nw := benchNet(b, peers)
			criteria := ""
			for _, p := range nw.Peers {
				if len(p.Library) > 0 {
					criteria = p.Library[0].Name
					break
				}
			}
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := floodNaive(nw, i%peers, criteria, 4, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
