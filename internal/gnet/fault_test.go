package gnet

import (
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/rng"
	"querycentric/internal/terms"
)

// fileOf returns a file name from the first non-empty library at or after
// peer index i.
func fileOf(t *testing.T, nw *Network, i int) string {
	t.Helper()
	for k := 0; k < len(nw.Peers); k++ {
		p := nw.Peers[(i+k)%len(nw.Peers)]
		if len(p.Library) > 0 {
			return p.Library[0].Name
		}
	}
	t.Fatal("no peer has a library")
	return ""
}

// populatedNet builds a two-tier network over a calibrated catalog.
func populatedNet(t *testing.T, peers int) *Network {
	t.Helper()
	return populatedNetWith(t, DefaultConfig(5), peers)
}

// populatedCatalog builds the calibrated catalog populatedNet builds over,
// fresh: callers may grow its libraries.
func populatedCatalog(t *testing.T, peers int) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 5, Peers: peers, UniqueObjects: peers * 25, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// sharedCatalogs memoises populatedCatalog per size for the builders that
// only read it (sharedCatalog): a fuzz input would otherwise spend an eighth
// of its time rebuilding a catalog an earlier input already built.
var sharedCatalogs sync.Map // peers → *catalog.Catalog

// sharedCatalog is populatedCatalog(t, peers), built once per size; the
// caller must not mutate it.
func sharedCatalog(t *testing.T, peers int) *catalog.Catalog {
	t.Helper()
	if cat, ok := sharedCatalogs.Load(peers); ok {
		return cat.(*catalog.Catalog)
	}
	cat, _ := sharedCatalogs.LoadOrStore(peers, populatedCatalog(t, peers))
	return cat.(*catalog.Catalog)
}

// populatedNetWith is populatedNet on the given topology, built fresh over
// the shared catalog.
func populatedNetWith(t *testing.T, cfg Config, peers int) *Network {
	t.Helper()
	nw, err := NewFromCatalogWorkers(cfg, sharedCatalog(t, peers), 0)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestZeroFaultPlaneLeavesFloodIdentical(t *testing.T) {
	nwA := populatedNet(t, 150)
	nwB := populatedNet(t, 150)
	nwB.SetFaults(faults.New(faults.Config{Seed: 9}))

	for origin := 0; origin < 10; origin++ {
		criteria := fileOf(t, nwA, origin*13+7)
		ra, err := nwA.NewFloodCtx().Flood(origin, criteria, 4, rng.New(uint64(origin)))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := nwB.NewFloodCtx().Flood(origin, criteria, 4, rng.New(uint64(origin)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("zero-fault plane perturbed flood %d: %+v vs %+v", origin, ra, rb)
		}
	}
}

func TestFloodMessageLossDegradesReach(t *testing.T) {
	base := populatedNet(t, 200)
	criteria := fileOf(t, base, 42)
	clean, err := base.NewFloodCtx().Flood(0, criteria, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}

	lossy := populatedNet(t, 200)
	lossy.SetFaults(faults.New(faults.Config{Seed: 9, MessageLoss: 0.4}))
	faulted, err := lossy.NewFloodCtx().Flood(0, criteria, 5, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.PeersReached >= clean.PeersReached {
		t.Errorf("40%% loss did not reduce reach: %d vs clean %d",
			faulted.PeersReached, clean.PeersReached)
	}
	if faulted.TotalResults > clean.TotalResults {
		t.Errorf("lossy flood found more results (%d) than clean (%d)",
			faulted.TotalResults, clean.TotalResults)
	}
}

func TestFloodDeadPeersNeverAnswer(t *testing.T) {
	nw := populatedNet(t, 120)
	plane := faults.New(faults.Config{Seed: 2})
	mask := make([]bool, 120)
	for i := range mask {
		mask[i] = i%2 == 0 // odd peers dead
	}
	plane.SetLiveness(mask)
	nw.SetFaults(plane)

	res, err := nw.NewFloodCtx().Flood(0, BrowseCriteria, 5, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeersReached == 0 {
		t.Fatal("flood reached nobody")
	}
	for _, h := range res.Hits {
		if h.PeerID%2 != 0 {
			t.Errorf("dead peer %d answered the flood", h.PeerID)
		}
	}
}

func TestDialFaultsAreTransientAndTimeout(t *testing.T) {
	nw := populatedNet(t, 60)
	nw.SetFaults(faults.New(faults.Config{Seed: 4, DialTimeout: 0.5}))
	addr := nw.Peers[1].Addr

	sawTimeout, sawSuccess := false, false
	for attempt := 0; attempt < 40 && !(sawTimeout && sawSuccess); attempt++ {
		conn, err := nw.Dial(addr)
		switch {
		case errors.Is(err, ErrTimeout):
			sawTimeout = true
		case err == nil:
			conn.Close()
			sawSuccess = true
		default:
			t.Fatalf("unexpected dial error: %v", err)
		}
	}
	if !sawTimeout {
		t.Error("no dial ever timed out at 50% fault rate")
	}
	if !sawSuccess {
		t.Error("no dial ever succeeded at 50% fault rate (fault not transient)")
	}
}

func TestDialDeadPeerTimesOut(t *testing.T) {
	nw := populatedNet(t, 60)
	plane := faults.New(faults.Config{Seed: 4})
	mask := make([]bool, 60)
	mask[0] = true
	plane.SetLiveness(mask)
	nw.SetFaults(plane)

	if _, err := nw.Dial(nw.Peers[1].Addr); !errors.Is(err, ErrTimeout) {
		t.Errorf("dial to dead peer: got %v, want ErrTimeout", err)
	}
	conn, err := nw.Dial(nw.Peers[0].Addr)
	if err != nil {
		t.Fatalf("dial to live peer failed: %v", err)
	}
	conn.Close()
}

func TestHandshakeStallSurfacesAsError(t *testing.T) {
	nw := populatedNet(t, 60)
	nw.SetFaults(faults.New(faults.Config{Seed: 6, HandshakeStall: 1}))
	conn, err := nw.Dial(nw.Peers[2].Addr)
	if err != nil {
		t.Fatalf("dial failed: %v", err)
	}
	defer conn.Close()
	if _, err := Connect(conn, map[string]string{"User-Agent": "t"}); err == nil {
		t.Error("handshake against stalled servent succeeded")
	}
}

func TestConnResetKillsStreamMidway(t *testing.T) {
	nw := populatedNet(t, 60)
	nw.SetFaults(faults.New(faults.Config{Seed: 8, ConnReset: 1}))
	// Repeatedly browse: with ConnReset 1 every connection carries a
	// bounded byte budget, so some session must die with an explicit
	// reset once the enumeration outgrows the budget.
	sawReset := false
	for attempt := 0; attempt < 20 && !sawReset; attempt++ {
		addr := nw.Peers[2+attempt%40].Addr
		err := browseOnce(t, nw, addr)
		if err == nil {
			continue // small library fit inside the budget
		}
		if errors.Is(err, ErrConnReset) {
			sawReset = true
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
			!errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, ErrFirewalled) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !sawReset {
		t.Error("reset never fired across 20 budgeted sessions")
	}
}

// browseOnce dials addr, handshakes and drains a full browse; it returns
// the first error the stream surfaces (nil for a complete enumeration).
func browseOnce(t *testing.T, nw *Network, addr Addr) error {
	t.Helper()
	conn, err := nw.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := Connect(conn, map[string]string{"User-Agent": "t"}); err != nil {
		return err
	}
	browse := &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(1, 2), Type: gmsg.TypeQuery, TTL: 1},
		Query:  &gmsg.Query{Criteria: BrowseCriteria},
	}
	if err := gmsg.WriteMessage(conn, browse); err != nil {
		return err
	}
	for {
		m, err := gmsg.ReadMessage(conn)
		if err != nil {
			return err
		}
		if m.Header.Type == gmsg.TypeQueryHit && len(m.QueryHit.Results) < 200 {
			return nil
		}
	}
}

func TestMatchEquivalentToNaiveScan(t *testing.T) {
	// The posting-list intersection must return exactly what the naive
	// re-tokenizing scan returned, in the same order.
	nw := populatedNet(t, 80)
	queries := []string{"", "zzzznotaterm"}
	for _, p := range nw.Peers[:20] {
		if len(p.Library) > 0 {
			queries = append(queries, p.Library[0].Name)
			if len(p.Library) > 2 {
				queries = append(queries, p.Library[2].Name)
			}
		}
	}
	for _, p := range nw.Peers {
		for _, q := range queries {
			got := p.Match(q)
			want := naiveMatch(p, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("peer %d query %q: Match returned %d files, naive scan %d",
					p.ID, q, len(got), len(want))
			}
		}
	}
}

// naiveMatch is the pre-optimization matching rule: every query token must
// appear in the file name's token set.
func naiveMatch(p *Peer, criteria string) []File {
	toks := terms.Tokenize(criteria)
	if len(toks) == 0 {
		return nil
	}
	var out []File
	for _, f := range p.Library {
		name := terms.TokenSet(f.Name)
		ok := true
		for _, tok := range toks {
			if _, has := name[tok]; !has {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, f)
		}
	}
	return out
}

func BenchmarkMatch(b *testing.B) {
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 5, Peers: 50, UniqueObjects: 4000, ReplicaAlpha: 2.45,
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	nw, err := NewFromCatalogWorkers(DefaultConfig(5), cat, 0)
	if err != nil {
		b.Fatal(err)
	}
	var criteria []string
	for _, p := range nw.Peers[:10] {
		if len(p.Library) > 0 {
			criteria = append(criteria, p.Library[0].Name)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := nw.Peers[i%len(nw.Peers)]
		p.Match(criteria[i%len(criteria)])
	}
}
