package gnet

import (
	"errors"
	"net"
	"testing"

	"querycentric/internal/gmsg"
)

// dialPeer dials peer id directly regardless of firewall state (test hook).
func dialPeer(t *testing.T, nw *Network, id int) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		_ = nw.ServeConn(id, server)
	}()
	t.Cleanup(func() { client.Close() })
	return client
}

func TestHandshakeOverPipe(t *testing.T) {
	nw := twoTierNet(t, 100)
	conn := dialPeer(t, nw, 0)
	h, err := Connect(conn, map[string]string{"User-Agent": "crawler-test"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Code != 200 {
		t.Fatalf("handshake code %d", h.Code)
	}
	if h.Headers["user-agent"] == "" {
		t.Error("missing server User-Agent header")
	}
	if _, ok := h.Headers["x-ultrapeer"]; !ok {
		t.Error("missing X-Ultrapeer header")
	}
}

func TestHandshakeAdvertisesUltrapeers(t *testing.T) {
	nw := twoTierNet(t, 200)
	// Find a leaf; its X-Try-Ultrapeers must list exactly its ultrapeers.
	var leaf *Peer
	for _, p := range nw.Peers {
		if !p.Ultrapeer && len(p.Neighbors) > 0 {
			leaf = p
			break
		}
	}
	if leaf == nil {
		t.Skip("no leaves")
	}
	conn := dialPeer(t, nw, leaf.ID)
	h, err := Connect(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ParseTryUltrapeers(h.Headers["x-try-ultrapeers"])
	if len(got) != len(leaf.Neighbors) {
		t.Fatalf("advertised %d ultrapeers, want %d", len(got), len(leaf.Neighbors))
	}
	for _, a := range got {
		p := nw.PeerByAddr(a)
		if p == nil || !p.Ultrapeer {
			t.Errorf("advertised non-ultrapeer %v", a)
		}
	}
}

func TestHandshakeBusyRejection(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		_, _ = Accept(server, StatusBusy, nil)
	}()
	_, err := Connect(client, nil)
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("expected RejectedError, got %v", err)
	}
	if rej.Code != StatusBusy {
		t.Errorf("code %d, want %d", rej.Code, StatusBusy)
	}
}

func TestPingPongDiscovery(t *testing.T) {
	nw := twoTierNet(t, 150)
	// Dial an ultrapeer, ping with TTL 2, expect a pong for it and each
	// neighbour.
	var ultra *Peer
	for _, p := range nw.Peers {
		if p.Ultrapeer {
			ultra = p
			break
		}
	}
	conn := dialPeer(t, nw, ultra.ID)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	ping := &gmsg.Message{Header: gmsg.Header{
		GUID: gmsg.GUIDFromUint64s(1, 2), Type: gmsg.TypePing, TTL: 2}}
	if err := mc.write(ping); err != nil {
		t.Fatal(err)
	}
	want := 1 + len(ultra.Neighbors)
	seen := map[Addr]bool{}
	for i := 0; i < want; i++ {
		m, err := mc.read()
		if err != nil {
			t.Fatalf("pong %d: %v", i, err)
		}
		if m.Header.Type != gmsg.TypePong {
			t.Fatalf("pong %d has type 0x%02x", i, m.Header.Type)
		}
		seen[Addr{IP: m.Pong.IP, Port: m.Pong.Port}] = true
	}
	if !seen[ultra.Addr] {
		t.Error("no pong for the dialed peer itself")
	}
	for _, nb := range ultra.Neighbors {
		if !seen[nw.Peers[nb].Addr] {
			t.Errorf("no pong for neighbour %d", nb)
		}
	}
}

func TestPingTTL1NoNeighbourPongs(t *testing.T) {
	nw := flatNet(t, 50)
	conn := dialPeer(t, nw, 0)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	ping := &gmsg.Message{Header: gmsg.Header{
		GUID: gmsg.GUIDFromUint64s(3, 4), Type: gmsg.TypePing, TTL: 1}}
	if err := mc.write(ping); err != nil {
		t.Fatal(err)
	}
	m, err := mc.read()
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Type != gmsg.TypePong {
		t.Fatalf("got type 0x%02x", m.Header.Type)
	}
	// Send a second ping; the very next message must be the self-pong of
	// that ping (i.e. no neighbour pongs were queued from the first).
	ping2 := &gmsg.Message{Header: gmsg.Header{
		GUID: gmsg.GUIDFromUint64s(5, 6), Type: gmsg.TypePing, TTL: 1}}
	if err := mc.write(ping2); err != nil {
		t.Fatal(err)
	}
	m2, err := mc.read()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Header.GUID != ping2.Header.GUID {
		t.Error("unexpected queued pong from TTL-1 ping")
	}
}

func TestBrowseEnumeratesLibrary(t *testing.T) {
	nw := flatNet(t, 10)
	lib := make([]File, 0, 450) // forces 3 batches: 200+200+50
	for i := 0; i < 450; i++ {
		lib = append(lib, File{Index: uint32(i), Size: 1000, Name: "Some Song.mp3"})
	}
	nw.Peers[3].Library = lib
	conn := dialPeer(t, nw, 3)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	q := &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(7, 8), Type: gmsg.TypeQuery, TTL: 1},
		Query:  &gmsg.Query{Criteria: BrowseCriteria},
	}
	if err := mc.write(q); err != nil {
		t.Fatal(err)
	}
	total := 0
	batches := 0
	for {
		m, err := mc.read()
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.Type != gmsg.TypeQueryHit {
			t.Fatalf("got type 0x%02x", m.Header.Type)
		}
		total += len(m.QueryHit.Results)
		batches++
		if len(m.QueryHit.Results) < maxResultsPerHit {
			break
		}
	}
	if total != 450 {
		t.Errorf("browse returned %d files, want 450", total)
	}
	if batches != 3 {
		t.Errorf("browse used %d batches, want 3", batches)
	}
}

func TestBrowseExactBatchMultiple(t *testing.T) {
	nw := flatNet(t, 10)
	lib := make([]File, maxResultsPerHit) // exactly one full batch
	for i := range lib {
		lib[i] = File{Index: uint32(i), Name: "X Y.mp3"}
	}
	nw.Peers[2].Library = lib
	conn := dialPeer(t, nw, 2)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	q := &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(9, 10), Type: gmsg.TypeQuery, TTL: 1},
		Query:  &gmsg.Query{Criteria: BrowseCriteria},
	}
	if err := mc.write(q); err != nil {
		t.Fatal(err)
	}
	total, batches := 0, 0
	for {
		m, err := mc.read()
		if err != nil {
			t.Fatal(err)
		}
		total += len(m.QueryHit.Results)
		batches++
		if len(m.QueryHit.Results) < maxResultsPerHit {
			break
		}
	}
	if total != maxResultsPerHit || batches != 2 {
		t.Errorf("got %d files in %d batches, want %d in 2", total, batches, maxResultsPerHit)
	}
}

func TestKeywordQueryOverWire(t *testing.T) {
	nw := flatNet(t, 10)
	nw.Peers[5].Library = []File{
		{Index: 0, Name: "Aaron Neville - I Don't Know Much.mp3"},
		{Index: 1, Name: "Other Song.mp3"},
	}
	indexed(t, nw)
	conn := dialPeer(t, nw, 5)
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
	mc := newMsgConn(conn)
	q := &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(11, 12), Type: gmsg.TypeQuery, TTL: 1},
		Query:  &gmsg.Query{Criteria: "aaron neville"},
	}
	if err := mc.write(q); err != nil {
		t.Fatal(err)
	}
	m, err := mc.read()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.QueryHit.Results) != 1 || m.QueryHit.Results[0].FileIndex != 0 {
		t.Errorf("results: %+v", m.QueryHit.Results)
	}
}

func TestDialFirewalled(t *testing.T) {
	nw, err := New(Config{Seed: 13, FlatDegree: 4, FirewalledFrac: 1.0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Dial(nw.Peers[0].Addr); !errors.Is(err, ErrFirewalled) {
		t.Errorf("expected ErrFirewalled, got %v", err)
	}
}

func TestDialAndHandshake(t *testing.T) {
	nw := flatNet(t, 20)
	conn, err := nw.Dial(nw.Peers[7].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := Connect(conn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownAddr(t *testing.T) {
	nw := flatNet(t, 20)
	if _, err := nw.Dial(Addr{IP: [4]byte{1, 2, 3, 4}, Port: 6346}); err == nil {
		t.Error("dial to unknown address succeeded")
	}
}
