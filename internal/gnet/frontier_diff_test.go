package gnet

import (
	"fmt"
	"slices"
	"testing"

	"querycentric/internal/overlay"
	"querycentric/internal/rng"
	"querycentric/internal/search"
)

// TestFrontierAgreesWithFloodCtx holds the two flood engines to one ring
// semantics: the graph-level search.Engine.Flood (over overlay.Frontier) and
// the wire-level FloodCtx.Flood, run on mirrored networks — same neighbour
// order, same relay roles, one file per replica named by a token unique to
// its object — must agree on peers reached, messages, success, first-hit
// hops and holders found, for every TTL from 1 to 6, on a two-tier Gnutella
// graph and on a flat Erdős–Rényi graph.
func TestFrontierAgreesWithFloodCtx(t *testing.T) {
	const n, objects = 600, 400
	gnutella, err := overlay.NewGnutella(n, overlay.DefaultGnutellaConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := overlay.NewErdosRenyi(n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *overlay.Graph
	}{{"gnutella", gnutella}, {"flat", flat}} {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			place, err := search.ZipfPlacement(n, objects, 1.2, 40, 9)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := search.NewEngine(g, place)
			if err != nil {
				t.Fatal(err)
			}
			nw := mirrorGraph(t, g, place)
			ctx := nw.NewFloodCtx()
			r := rng.New(13)
			trials, found := 0, 0
			for ttl := 1; ttl <= 6; ttl++ {
				for k := 0; k < 60; k++ {
					obj, origin := r.Intn(objects), r.Intn(n)
					if slices.Contains(place.Holders[obj], int32(origin)) {
						continue
					}
					trials++
					want, err := eng.Flood(origin, obj, ttl)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ctx.Flood(origin, objectName(obj), ttl, r)
					if err != nil {
						t.Fatal(err)
					}
					firstHop := 0
					if len(got.Hits) > 0 {
						firstHop = got.Hits[0].Hops
						found++
					}
					if got.PeersReached != want.Peers || got.Messages != want.Messages ||
						(len(got.Hits) > 0) != want.Found || firstHop != want.Hops || got.TotalResults != want.Results {
						t.Fatalf("ttl=%d origin=%d object=%d: FloodCtx reached=%d msgs=%d hits=%d first-hop=%d results=%d, Frontier %+v",
							ttl, origin, obj, got.PeersReached, got.Messages, len(got.Hits), firstHop, got.TotalResults, want)
					}
				}
			}
			if trials < 300 || found == 0 || found == trials {
				t.Fatalf("%d of %d trials found their object: the fixture must give both outcomes", found, trials)
			}
		})
	}
}

// mirrorGraph builds a Network with g's adjacency (neighbour order kept)
// and relay roles, whose peers hold one file per replica place assigns them.
func mirrorGraph(t *testing.T, g *overlay.Graph, place *search.Placement) *Network {
	t.Helper()
	cfg := Config{Seed: 1, FlatDegree: 4}
	if g.TwoTier() {
		cfg.UltrapeerFrac = 0.15
	}
	nw, err := New(cfg, g.N())
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range nw.Peers {
		p.Ultrapeer = g.Ultra(v)
		p.Neighbors = p.Neighbors[:0]
		for _, u := range g.Neighbors(v) {
			p.Neighbors = append(p.Neighbors, int(u))
		}
		p.Library = nil
	}
	for obj, hs := range place.Holders {
		for _, h := range hs {
			p := nw.Peers[h]
			p.Library = append(p.Library, File{Index: uint32(len(p.Library)), Size: 1, Name: objectName(obj)})
		}
	}
	nw.markRelays()
	return indexed(t, nw)
}

// objectName is the file name, and the query, of one object: a single
// token no other object's name contains.
func objectName(obj int) string { return fmt.Sprintf("object%d", obj) }
