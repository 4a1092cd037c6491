package gnet

import (
	"fmt"
	"slices"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/qrp"
	"querycentric/internal/rng"
	"querycentric/internal/terms"
)

func qrpNet(t *testing.T) *Network {
	t.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 17, Peers: 400, UniqueObjects: 8000, ReplicaAlpha: 2.45,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewFromCatalogWorkers(DefaultConfig(17), cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestQRPNoFalseNegatives(t *testing.T) {
	nw := qrpNet(t)
	// Collect some real (origin, query) pairs that succeed without QRP,
	// then verify QRP filtering never loses them.
	type probe struct {
		origin  int
		query   string
		results int
	}
	var probes []probe
	r := rng.New(18)
	for p := 0; p < 400 && len(probes) < 20; p++ {
		if len(nw.Peers[p].Library) == 0 {
			continue
		}
		name := nw.Peers[p].Library[0].Name
		toks := nw.Peers[p].Match(name)
		if len(toks) == 0 {
			continue
		}
		origin := (p + 37) % 400
		res, err := nw.NewFloodCtx().Flood(origin, name, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalResults > 0 {
			probes = append(probes, probe{origin, name, res.TotalResults})
		}
	}
	if len(probes) < 5 {
		t.Fatalf("only %d probes gathered", len(probes))
	}
	if err := nw.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(18)
	for _, pr := range probes {
		res, err := nw.NewFloodCtx().Flood(pr.origin, pr.query, 4, r2)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalResults < pr.results {
			t.Errorf("QRP lost results for %q: %d < %d", pr.query, res.TotalResults, pr.results)
		}
	}
}

func TestQRPSavesMessages(t *testing.T) {
	nw := qrpNet(t)
	queries := []string{
		"completely absent terms", "zanzibar xylophone quux",
		"nonexistent aaa bbb", "qqqq wwww eeee",
	}
	run := func() int {
		total := 0
		r := rng.New(19)
		for i, q := range queries {
			res, err := nw.NewFloodCtx().Flood(i*13%400, q, 5, r)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Messages
		}
		return total
	}
	before := run()
	if err := nw.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	after := run()
	if after >= before {
		t.Errorf("QRP did not reduce messages: %d -> %d", before, after)
	}
	// For queries matching nothing, every leaf hop should be filtered:
	// savings must be substantial (leaves are ~85% of the network).
	if float64(after) > 0.6*float64(before) {
		t.Errorf("QRP savings too small: %d -> %d", before, after)
	}
	nw.DisableQRP()
	if again := run(); again != before {
		t.Errorf("DisableQRP did not restore behaviour: %d vs %d", again, before)
	}
}

func TestQRPBrowseUnaffected(t *testing.T) {
	nw := qrpNet(t)
	if err := nw.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	// qrpAllows must never block a browse (it has no keywords).
	for p := range nw.Peers {
		if !nw.qrpAllows(p, BrowseCriteria, nil) {
			t.Fatalf("browse blocked at peer %d", p)
		}
	}
}

func TestQRPInvalidBits(t *testing.T) {
	nw := qrpNet(t)
	if err := nw.EnableQRP(0); err == nil {
		t.Error("bits=0 accepted")
	}
}

// TestAddFileExtendsRouteTable pins the QRP × AddFile interaction: a replica
// placed on a leaf after EnableQRP must still be offered the queries it can
// answer. Last-hop filtering consults the table the leaf pushed, so AddFile
// has to mark the new name's slots there; a stale table turns the replica
// into a false negative. The naive reference reads the same table and cannot
// see this, so the hit is asserted directly.
func TestAddFileExtendsRouteTable(t *testing.T) {
	nw := qrpNet(t)
	if err := nw.EnableQRP(16); err != nil {
		t.Fatal(err)
	}
	// A leaf, one of its ultrapeers, and another leaf of that ultrapeer.
	leaf, other := -1, -1
	for _, p := range nw.Peers {
		if p.Ultrapeer || len(p.Neighbors) == 0 {
			continue
		}
		for _, nb := range nw.Peers[p.Neighbors[0]].Neighbors {
			if nb != p.ID && !nw.Peers[nb].Ultrapeer {
				leaf, other = p.ID, nb
				break
			}
		}
		if leaf >= 0 {
			break
		}
	}
	if leaf < 0 {
		t.Fatal("no ultrapeer with two leaves")
	}
	const name = "Zzqx Unheard Replica.mp3"
	if res, err := nw.NewFloodCtx().Flood(other, "zzqx unheard", 2, rng.New(1)); err != nil || len(res.Hits) != 0 {
		t.Fatalf("before AddFile: %d hits (err %v), want none", len(res.Hits), err)
	}
	if err := nw.AddFile(leaf, name, 4096); err != nil {
		t.Fatal(err)
	}
	res, err := nw.NewFloodCtx().Flood(other, "zzqx unheard", 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 1 || res.Hits[0].PeerID != leaf || res.Hits[0].Files[0].FileName != name {
		t.Fatalf("flood for the replica's novel terms under QRP: hits %+v, want one from leaf %d", res.Hits, leaf)
	}
}

// TestEnableQRPCostPin pins EnableQRP's allocations exactly, over a network
// already indexed at one worker: the route matrix, its rows, its holder
// numbers and the build's column scratch, whatever the number of leaves. Lowering the pin is free; raising
// it needs a CHANGES.md line naming the cause.
func TestEnableQRPCostPin(t *testing.T) {
	nw := populatedNet(t, 150)
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	if err := nw.EnableQRP(16); err != nil { // builds the dictionary's hash products
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if err := nw.EnableQRP(16); err != nil {
			t.Fatal(err)
		}
	})
	if got != 4 {
		t.Errorf("EnableQRP: %v allocations, pinned at 4", got)
	}
}

// routeTable is a leaf's QRP route table as the leaf builds it to push to
// its ultrapeers, kept as the reference the route matrix is held to: every
// keyword (terms.Tokenize) of every shared file name hashed with qrp.Hash
// into a 2^bits-slot bit array.
type routeTable struct {
	bits  uint
	slots []uint64
}

// leafTable builds the route table a leaf sharing lib pushes.
func leafTable(lib []File, bits uint) routeTable {
	t := routeTable{bits: bits, slots: make([]uint64, (1<<bits+63)/64)}
	for _, f := range lib {
		for _, tok := range terms.Tokenize(f.Name) {
			h := qrp.Hash(tok, bits)
			t.slots[h/64] |= 1 << (h % 64)
		}
	}
	return t
}

// matches reports whether every keyword of criteria hits the table, the
// criteria tokenized and hashed afresh; a keywordless query matches
// nothing.
func (t routeTable) matches(criteria string) bool {
	toks := terms.Tokenize(criteria)
	for _, tok := range toks {
		if h := qrp.Hash(tok, t.bits); t.slots[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	return len(toks) > 0
}

// TestQRPMatrixMatchesWireTables holds the route matrix to the tables the
// leaves would push: on flat and two-tier networks, at 12 and 16 bits, for
// known, novel, mixed, repeated and keywordless queries, every holder's
// pass bit equals its rebuilt table's match, and exactly the peers that push
// a table (leaves, or every peer of a flat network) hold a column. It holds
// again after AddFile grows libraries with known and novel terms, and after
// DisableQRP and EnableQRP, whose rebuilt matrix must equal the one AddFile
// grew in place.
func TestQRPMatrixMatchesWireTables(t *testing.T) {
	flat := DefaultConfig(5)
	flat.UltrapeerFrac = 0
	for _, shape := range []struct {
		name string
		cfg  Config
	}{{"two-tier", DefaultConfig(5)}, {"flat", flat}} {
		for _, bits := range []uint{12, 16} {
			t.Run(fmt.Sprintf("%s/%d", shape.name, bits), func(t *testing.T) {
				nw := populatedNetWith(t, shape.cfg, 120)
				if err := nw.EnableQRP(bits); err != nil {
					t.Fatal(err)
				}
				r := rng.New(uint64(bits))
				// word draws a keyword of a random peer's library, or a novel
				// one one time in four.
				word := func() string {
					if r.Intn(4) == 0 {
						return fmt.Sprintf("zq%dnovel", r.Intn(1000))
					}
					for {
						lib := nw.Peers[r.Intn(len(nw.Peers))].Library
						if len(lib) == 0 {
							continue
						}
						toks := terms.Tokenize(lib[r.Intn(len(lib))].Name)
						return toks[r.Intn(len(toks))]
					}
				}
				check := func(stage string) {
					t.Helper()
					tables := make([]routeTable, len(nw.Peers))
					for p, peer := range nw.Peers {
						if !peer.Ultrapeer {
							tables[p] = leafTable(peer.Library, bits)
						}
					}
					queries := []string{"", "---", BrowseCriteria}
					for p := 0; p < len(nw.Peers); p += 7 {
						if lib := nw.Peers[p].Library; len(lib) > 0 {
							queries = append(queries, lib[len(lib)-1].Name) // passes at p
						}
					}
					for range 80 {
						q := word()
						for k := r.Intn(3); k > 0; k-- {
							q += " " + word()
						}
						if r.Intn(8) == 0 {
							q += " " + q // repeated keywords
						}
						queries = append(queries, q)
					}
					c := nw.NewFloodCtx()
					passed, blocked := 0, 0
					for _, q := range queries {
						toks := TokenizeQuery(q)
						ids, _ := nw.dict.Resolve(toks, nil)
						h := c.hoistQRPToks(q, toks, ids)
						if !h.active {
							if q != BrowseCriteria {
								t.Fatalf("%s: query %q left the gate inactive", stage, q)
							}
							continue
						}
						for p, peer := range nw.Peers {
							if holds := h.ord[p] >= 0; holds == peer.Ultrapeer {
								t.Fatalf("%s: peer %d (ultrapeer %v) holds a column: %v", stage, p, peer.Ultrapeer, holds)
							}
							if peer.Ultrapeer {
								continue
							}
							got, want := !h.blocks(p), tables[p].matches(q)
							if got != want {
								t.Fatalf("%s: query %q at peer %d: matrix passes %v, rebuilt table %v", stage, q, p, got, want)
							}
							if got {
								passed++
							} else {
								blocked++
							}
						}
					}
					if passed == 0 || blocked == 0 {
						t.Fatalf("%s: %d holder checks passed, %d blocked; want both", stage, passed, blocked)
					}
				}
				check("enabled")

				// Known terms: another peer's file; novel ones: a name no
				// library holds, which re-interns the network.
				grown := 0
				for p := 3; p < len(nw.Peers); p += 11 {
					if nw.Peers[p].Ultrapeer {
						continue
					}
					from := nw.Peers[(p+50)%len(nw.Peers)].Library
					name := fmt.Sprintf("Zq%dnovel Replica %d.mp3", p, bits)
					if len(from) > 0 && grown%2 == 0 {
						name = from[0].Name
					}
					if err := nw.AddFile(p, name, 4096); err != nil {
						t.Fatal(err)
					}
					grown++
				}
				if grown < 4 {
					t.Fatalf("grew only %d libraries", grown)
				}
				check("after AddFile")

				inPlace := nw.qrp
				nw.DisableQRP()
				if nw.qrp != nil {
					t.Fatal("DisableQRP left the matrix")
				}
				if err := nw.EnableQRP(bits); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(nw.qrp.rows, inPlace.rows) || !slices.Equal(nw.qrp.ord, inPlace.ord) {
					t.Fatal("the matrix AddFile grew differs from the one EnableQRP rebuilds")
				}
				check("re-enabled")
			})
		}
	}
}
