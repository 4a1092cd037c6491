package gnet

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/rng"
)

// floodNaive is the pre-optimisation flood kept as a reference oracle and
// perf baseline: a fresh `seen` map per flood, one Decode per delivered
// envelope, one Encode per forwarding peer, a per-edge QRP hash of the
// criteria, and a linear scan of each reached library (linearMatch) instead
// of the posting index under test. Fault semantics match the optimised
// path (per-flood salted loss schedule, liveness snapshot) so results must
// be byte-identical.
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
	res := &FloodResult{GUID: guid, Criteria: criteria, TTL: ttl}
	seen := map[int]bool{origin: true}
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
			seen[env.to] = true
			m, _, err := gmsg.Decode(env.raw)
			if err != nil {
				return nil, fmt.Errorf("gnet: hop decode: %w", err)
			}
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
				if !nw.qrpAllows(nb, criteria) {
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

// TestFloodMatchesNaiveReference cross-checks the optimised FloodCtx
// against the map-based reference on plain, QRP, lossy and QRP-plus-lossy
// networks. Every fifth trial also floods the criteria with an unknown term
// appended, the mismatch case that must still spread and hit nothing.
func TestFloodMatchesNaiveReference(t *testing.T) {
	for _, mode := range []string{"plain", "qrp", "lossy", "qrp+lossy"} {
		t.Run(mode, func(t *testing.T) {
			nw := populatedNet(t, 180)
			if strings.Contains(mode, "qrp") {
				if err := nw.EnableQRP(16); err != nil {
					t.Fatal(err)
				}
			}
			if strings.Contains(mode, "lossy") {
				nw.SetFaults(faults.New(faults.Config{Seed: 11, MessageLoss: 0.2, PeerDepart: 0.1}))
			}
			ctx := nw.NewFloodCtx()
			for trial := 0; trial < 30; trial++ {
				origin := trial * 7 % len(nw.Peers)
				queries := []string{fileOf(t, nw, trial*13+2)}
				if trial%5 == 0 {
					queries = append(queries, queries[0]+" zqxjkwv")
				}
				for _, criteria := range queries {
					want, err := floodNaive(nw, origin, criteria, 4, rng.New(uint64(trial)))
					if err != nil {
						t.Fatal(err)
					}
					got, err := ctx.Flood(origin, criteria, 4, rng.New(uint64(trial)))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s trial %d (%q): optimised flood diverged from reference:\n%+v\nvs\n%+v",
							mode, trial, criteria, got, want)
					}
				}
			}
		})
	}
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
