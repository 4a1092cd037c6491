package gnet

import (
	"errors"
	"strings"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/gmsg"
	"querycentric/internal/rng"
)

func flatNet(t *testing.T, n int) *Network {
	t.Helper()
	nw, err := New(Config{Seed: 1, FlatDegree: 6}, n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func twoTierNet(t *testing.T, n int) *Network {
	t.Helper()
	nw, err := New(DefaultConfig(2), n)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// indexed runs BuildIndexes on a hand-assembled network once its libraries
// are in place, as adaptive.New does, and returns it.
func indexed(t *testing.T, nw *Network) *Network {
	t.Helper()
	if err := nw.BuildIndexes(0); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, 1); err == nil {
		t.Error("single-peer network accepted")
	}
	if _, err := New(Config{UltrapeerFrac: 1.5}, 10); err == nil {
		t.Error("bad UltrapeerFrac accepted")
	}
	if _, err := New(Config{FirewalledFrac: -1}, 10); err == nil {
		t.Error("bad FirewalledFrac accepted")
	}
}

func TestFlatConnected(t *testing.T) {
	nw := flatNet(t, 500)
	if parts := nw.Partitions(nil); parts != 1 {
		t.Fatalf("flat network in %d partitions", parts)
	}
	for i, p := range nw.Peers {
		if len(p.Neighbors) < 2 {
			t.Errorf("peer %d has degree %d < 2", i, len(p.Neighbors))
		}
	}
}

// TestPartitionsOnlineMask checks that offline peers neither count nor
// carry connectivity: with every peer offline there is no component, and
// a peer whose neighbors are all offline is a component of its own.
func TestPartitionsOnlineMask(t *testing.T) {
	nw := flatNet(t, 200)
	online := make([]bool, len(nw.Peers))
	if got := nw.Partitions(online); got != 0 {
		t.Fatalf("all offline: %d partitions, want 0", got)
	}
	for i := range online {
		online[i] = true
	}
	if got := nw.Partitions(online); got != 1 {
		t.Fatalf("all online: %d partitions, want 1", got)
	}
	for _, nb := range nw.Peers[0].Neighbors {
		online[nb] = false
	}
	if got := nw.Partitions(online); got < 2 {
		t.Fatalf("peer 0 cut off by offline neighbors: %d partitions, want >= 2", got)
	}
}

func TestTwoTierConnected(t *testing.T) {
	nw := twoTierNet(t, 500)
	if parts := nw.Partitions(nil); parts != 1 {
		t.Fatalf("two-tier network in %d partitions", parts)
	}
	ultras := 0
	for _, p := range nw.Peers {
		if p.Ultrapeer {
			ultras++
		}
	}
	if ultras < 50 || ultras > 100 {
		t.Errorf("ultrapeers = %d, want ~75 of 500", ultras)
	}
}

func TestLeavesOnlyConnectToUltras(t *testing.T) {
	nw := twoTierNet(t, 300)
	for _, p := range nw.Peers {
		if p.Ultrapeer {
			continue
		}
		for _, nb := range p.Neighbors {
			if !nw.Peers[nb].Ultrapeer {
				t.Fatalf("leaf %d connected to leaf %d", p.ID, nb)
			}
		}
	}
}

func TestDeterministicTopology(t *testing.T) {
	a := twoTierNet(t, 200)
	b := twoTierNet(t, 200)
	for i := range a.Peers {
		if len(a.Peers[i].Neighbors) != len(b.Peers[i].Neighbors) {
			t.Fatalf("peer %d degree differs across builds", i)
		}
		if a.Peers[i].Ultrapeer != b.Peers[i].Ultrapeer {
			t.Fatalf("peer %d role differs across builds", i)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	nw := flatNet(t, 100)
	for _, p := range nw.Peers {
		if got := nw.PeerByAddr(p.Addr); got == nil || got.ID != p.ID {
			t.Fatalf("PeerByAddr(%v) failed for peer %d", p.Addr, p.ID)
		}
	}
	if nw.PeerByAddr(Addr{IP: [4]byte{192, 168, 1, 1}, Port: 6346}) != nil {
		t.Error("foreign address resolved to a peer")
	}
}

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("10.0.1.2:6346")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != "10.0.1.2:6346" {
		t.Errorf("round trip: %s", a.String())
	}
	for _, bad := range []string{"", "10.0.0.1", "10.0.0:6346", "10.0.0.999:6346", "a.b.c.d:1", "10.0.0.1:99999"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) accepted", bad)
		}
	}
}

func TestTryUltrapeersRoundTrip(t *testing.T) {
	addrs := []Addr{addrFor(3), addrFor(77), addrFor(1000)}
	v := FormatTryUltrapeers(addrs)
	got := ParseTryUltrapeers(v)
	if len(got) != 3 {
		t.Fatalf("parsed %d addrs", len(got))
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Errorf("addr %d: %v vs %v", i, got[i], addrs[i])
		}
	}
	if got := ParseTryUltrapeers("garbage,, 10.0.0.1:6346 ,1.2.3:5"); len(got) != 1 {
		t.Errorf("lenient parse kept %d addrs, want 1", len(got))
	}
}

func TestMatch(t *testing.T) {
	nw := flatNet(t, 2)
	p := nw.Peers[0]
	p.Library = []File{
		{Index: 0, Name: "Aaron Neville - I Don't Know Much.mp3"},
		{Index: 1, Name: "Linda Ronstadt - Blue Bayou.mp3"},
		{Index: 2, Name: "01 Track.wma"},
	}
	if got := p.Match("aaron neville"); got != nil {
		t.Errorf("Match before BuildIndexes = %v, want nil", got)
	}
	indexed(t, nw)
	if got := p.Match("aaron neville"); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("Match(aaron neville) = %v", got)
	}
	if got := p.Match("mp3"); len(got) != 2 {
		t.Errorf("Match(mp3) found %d files, want 2", len(got))
	}
	if got := p.Match("aaron ronstadt"); got != nil {
		t.Errorf("conjunctive match violated: %v", got)
	}
	if got := p.Match(""); got != nil {
		t.Errorf("empty query matched %v", got)
	}
}

func TestNewFromCatalog(t *testing.T) {
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 3, Peers: 100, UniqueObjects: 2000, ReplicaAlpha: 2.45,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewFromCatalogWorkers(DefaultConfig(3), cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range nw.Peers {
		total += len(p.Library)
	}
	if total != cat.TotalPlacements {
		t.Errorf("library total %d != placements %d", total, cat.TotalPlacements)
	}
}

func TestFloodFindsPlantedFile(t *testing.T) {
	nw := flatNet(t, 200)
	// Plant a unique file on a peer adjacent to the origin.
	origin := 0
	holder := nw.Peers[origin].Neighbors[0]
	nw.Peers[holder].Library = []File{{Index: 0, Size: 1, Name: "Unique Zanzibar Xylophone.mp3"}}
	indexed(t, nw)
	res, err := nw.NewFloodCtx().Flood(origin, "zanzibar xylophone", 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalResults != 1 || len(res.Hits) != 1 || res.Hits[0].PeerID != holder {
		t.Errorf("flood result: %+v", res)
	}
	if res.Hits[0].Hops != 1 {
		t.Errorf("hit hops = %d, want 1", res.Hits[0].Hops)
	}
}

func TestFloodTTLBoundsReach(t *testing.T) {
	nw := indexed(t, flatNet(t, 2000))
	r := rng.New(5)
	prev := 0
	for ttl := 1; ttl <= 4; ttl++ {
		res, err := nw.NewFloodCtx().Flood(0, "nonexistentterm xyz", ttl, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeersReached <= prev && res.PeersReached < len(nw.Peers)-1 {
			t.Errorf("TTL %d reached %d peers, not more than TTL %d's %d",
				ttl, res.PeersReached, ttl-1, prev)
		}
		prev = res.PeersReached
	}
	// TTL 1 must reach exactly the neighbours.
	res, _ := nw.NewFloodCtx().Flood(0, "foo bar", 1, r)
	if res.PeersReached != len(nw.Peers[0].Neighbors) {
		t.Errorf("TTL1 reached %d, want %d", res.PeersReached, len(nw.Peers[0].Neighbors))
	}
}

func TestFloodReachAgreesWithFlood(t *testing.T) {
	nw := indexed(t, twoTierNet(t, 800))
	r := rng.New(7)
	for _, ttl := range []int{1, 2, 3} {
		res, err := nw.NewFloodCtx().Flood(10, "zzz qqq", ttl, r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := floodNaive(nw, 10, "zzz qqq", ttl, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if want.PeersReached != res.PeersReached || want.Messages != res.Messages {
			t.Errorf("TTL %d: naive reached=%d msgs=%d, Flood reached=%d msgs=%d",
				ttl, want.PeersReached, want.Messages, res.PeersReached, res.Messages)
		}
	}
}

// TestFloodRequiresIndex: a network assembled by hand has no dictionary
// until BuildIndexes runs. Before that a flood fails with ErrNotIndexed,
// Match and MatchTokens answer nothing, and AddFile only appends; after it
// the planted and the added file are both found.
func TestFloodRequiresIndex(t *testing.T) {
	nw := flatNet(t, 30)
	holder := nw.Peers[0].Neighbors[0]
	nw.Peers[holder].Library = []File{{Index: 0, Size: 1, Name: "Unique Zanzibar Xylophone.mp3"}}
	if err := nw.AddFile(holder, "Zanzibar Marimba.mp3", 2); err != nil {
		t.Fatal(err)
	}
	if nw.TermDict() != nil {
		t.Fatal("AddFile indexed a network never indexed")
	}
	if _, err := nw.NewFloodCtx().Flood(0, "zanzibar", 2, rng.New(1)); !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("flood before BuildIndexes: err %v, want ErrNotIndexed", err)
	}
	p := nw.Peers[holder]
	if got, _ := p.MatchTokens(TokenizeQuery("zanzibar"), nil); p.Match("zanzibar") != nil || got != nil {
		t.Fatal("Match answered before BuildIndexes")
	}
	indexed(t, nw)
	res, err := nw.NewFloodCtx().Flood(0, "zanzibar", 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalResults != 2 || len(res.Hits) != 1 || res.Hits[0].PeerID != holder {
		t.Fatalf("flood after BuildIndexes: %+v, want both files at peer %d", res, holder)
	}
}

func TestFloodValidation(t *testing.T) {
	nw := indexed(t, flatNet(t, 10))
	if _, err := nw.NewFloodCtx().Flood(-1, "x", 2, rng.New(1)); err == nil {
		t.Error("negative origin accepted")
	}
	if _, err := nw.NewFloodCtx().Flood(0, "x", 0, rng.New(1)); err == nil {
		t.Error("zero TTL accepted")
	}
	// A criteria no query descriptor can carry: the wire-faithful reference
	// fails to decode it, and the flood must refuse it too.
	huge := strings.Repeat("x", gmsg.MaxPayload)
	if _, err := floodNaive(nw, 0, huge, 2, rng.New(1)); err == nil {
		t.Fatal("the reference flooded an oversized descriptor")
	}
	if _, err := nw.NewFloodCtx().Flood(0, huge, 2, rng.New(1)); err == nil {
		t.Error("criteria past the descriptor payload limit accepted")
	}
}

func TestLeafDoesNotRelay(t *testing.T) {
	nw := indexed(t, twoTierNet(t, 400))
	// From any origin, TTL-5 flood must still cover at most ultrapeers +
	// their leaves; by TTL 5 in a 400-node net, flooding through ultras
	// covers nearly everything, but no query may have been *forwarded by*
	// a leaf. Structural check: a flood from a leaf reaches its ultrapeers
	// at hop 1 only via direct links.
	var leaf int = -1
	for _, p := range nw.Peers {
		if !p.Ultrapeer {
			leaf = p.ID
			break
		}
	}
	if leaf < 0 {
		t.Skip("no leaves")
	}
	res, err := nw.NewFloodCtx().Flood(leaf, "anything here", 1, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeersReached != len(nw.Peers[leaf].Neighbors) {
		t.Errorf("leaf TTL1 reached %d, want %d", res.PeersReached, len(nw.Peers[leaf].Neighbors))
	}
}

func TestFirewalledFraction(t *testing.T) {
	nw, err := New(Config{Seed: 11, FlatDegree: 4, FirewalledFrac: 0.3}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fw := 0
	for i := range nw.Peers {
		if nw.Firewalled(i) {
			fw++
		}
	}
	if fw < 230 || fw > 370 {
		t.Errorf("firewalled %d of 1000, want ~300", fw)
	}
}

func BenchmarkFloodTTL3(b *testing.B) {
	nw, err := New(DefaultConfig(1), 5000)
	if err != nil {
		b.Fatal(err)
	}
	fc, r := nw.NewFloodCtx(), rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fc.Flood(i%5000, "some query terms", 3, r); err != nil {
			b.Fatal(err)
		}
	}
}
