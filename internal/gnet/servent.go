package gnet

import (
	"errors"
	"fmt"
	"io"
	"net"

	"querycentric/internal/capacity"
	"querycentric/internal/faults"
)

// BrowseCriteria is the query string that asks a peer to enumerate its
// entire shared library (our stand-in for Gnutella's browse-host feature,
// which the paper's file crawler relied on).
const BrowseCriteria = "*"

// maxResultsPerHit caps results per QueryHit descriptor (wire limit 255).
const maxResultsPerHit = 200

// ErrFirewalled is returned by Dial for peers behind a (modeled) firewall.
var ErrFirewalled = errors.New("gnet: peer is firewalled")

// SetFaults attaches a fault-injection plane to the network. All wire
// operations (Dial, handshakes, servent sessions, Flood) consult it; a nil
// plane — the default — injects nothing and leaves every code path
// byte-identical to the fault-free substrate.
func (nw *Network) SetFaults(p *faults.Plane) { nw.faults = p }

// Faults returns the attached fault plane (nil when none).
func (nw *Network) Faults() *faults.Plane { return nw.faults }

// SetCapacity attaches a bounded-ingress overload plane: floods and
// maintenance pings charge each destination's queue and respect its
// circuit breaker. A nil plane — the default — admits everything and
// leaves every code path byte-identical to the unbounded substrate.
func (nw *Network) SetCapacity(p *capacity.Plane) { nw.capacity = p }

// Dial opens a wire connection to the peer at addr, serving the peer's side
// on a background goroutine. The caller must Close the returned connection.
// Firewalled peers refuse the connection, as the crawler would observe.
// Under an attached fault plane a dial may time out (dead peer, injected
// dial fault), the servent may stall the handshake, or the returned
// connection may be primed to reset or truncate mid-stream.
func (nw *Network) Dial(addr Addr) (io.ReadWriteCloser, error) {
	p := nw.PeerByAddr(addr)
	if p == nil {
		return nil, fmt.Errorf("gnet: no peer at %s: %w", addr, ErrTimeout)
	}
	if !nw.faults.Alive(p.ID) || nw.faults.DialTimeout(p.ID) {
		return nil, fmt.Errorf("gnet: dial %s: %w", addr, ErrTimeout)
	}
	if nw.firewalled[p.ID] {
		return nil, ErrFirewalled
	}
	client, server := net.Pipe()
	if nw.faults.HandshakeStall(p.ID) {
		// The servent reads the client's greeting, goes silent and drops
		// the connection: the client observes EOF mid-handshake.
		go func() {
			defer server.Close()
			buf := make([]byte, 1024)
			_, _ = server.Read(buf)
		}()
		return client, nil
	}
	go func() {
		defer server.Close()
		// Errors on the servent side (e.g. client hangs up) end the session.
		_ = nw.ServeConn(p.ID, server)
	}()
	if budget, fire := nw.faults.ConnReset(p.ID); fire {
		return newFaultConn(client, budget, false), nil
	}
	if budget, fire := nw.faults.TruncateWrite(p.ID); fire {
		return newFaultConn(client, budget, true), nil
	}
	return client, nil
}

// ServeConn speaks the servent side of the protocol on conn for peer id:
// handshake, then Ping→Pong (with pong-cached neighbours) and
// Query→QueryHit until the connection closes.
func (nw *Network) ServeConn(id int, conn io.ReadWriteCloser) error {
	if id < 0 || id >= len(nw.Peers) {
		return fmt.Errorf("gnet: peer %d out of range", id)
	}
	p := nw.Peers[id]
	hdrs := map[string]string{
		"User-Agent":  "querycentric/0.1",
		"X-Ultrapeer": boolHeader(p.Ultrapeer),
	}
	if tries := nw.appendTries(nil, p); len(tries) > 0 {
		addrs := make([]Addr, len(tries))
		for i, id := range tries {
			addrs[i] = nw.Peers[id].Addr
		}
		hdrs["X-Try-Ultrapeers"] = FormatTryUltrapeers(addrs)
	}
	if _, err := Accept(conn, 200, hdrs); err != nil {
		return err
	}
	buf := newMsgConn(conn)
	for {
		m, err := buf.read()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		// Session fault: the peer departs before serving this descriptor.
		if nw.faults.PeerDepart(p.ID) {
			return nil
		}
		if err := nw.handle(p, m, buf); err != nil {
			if errors.Is(err, errPeerDeparted) {
				return nil
			}
			return err
		}
	}
}

// appendTries appends to dst the neighbours whose addresses p advertises
// in X-Try-Ultrapeers: its ultrapeers, or every neighbour on a flat
// network.
func (nw *Network) appendTries(dst []int32, p *Peer) []int32 {
	for _, nb := range p.Neighbors {
		if nw.relay == nil || nw.relay[nb] {
			dst = append(dst, int32(nb))
		}
	}
	return dst
}

func boolHeader(b bool) string {
	if b {
		return "True"
	}
	return "False"
}
