package gnet

import (
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/rng"
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
		if !nw.qrpAllows(p, BrowseCriteria) {
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
// already indexed at one worker: each leaf costs the two allocations of
// the decoded table it keeps (the table and its slot words), and the build
// as a whole four more (the shared scratch table and its slots, the blob,
// the per-peer table slice). Lowering the pin is free; raising it needs a
// CHANGES.md line naming the cause.
func TestEnableQRPCostPin(t *testing.T) {
	nw := populatedNet(t, 150)
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, p := range nw.Peers {
		if !p.Ultrapeer {
			leaves++
		}
	}
	if leaves == 0 {
		t.Fatal("fixture has no leaves")
	}
	if err := nw.EnableQRP(16); err != nil { // builds the dictionary's hash products
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if err := nw.EnableQRP(16); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2*leaves + 4); got != want {
		t.Errorf("EnableQRP over %d leaves: %v allocations, pinned at %v (2 per leaf + 4)", leaves, got, want)
	}
}
