package gnet

import (
	"fmt"

	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// This file is the overlay-maintenance subsystem: the machinery that turns
// the frozen construction-time topology into a self-healing overlay.
//
// Three mechanisms cooperate, mirroring what deployed Gnutella servents do:
//
//   - Departure handling: a politely departing peer sends an encoded Bye
//     descriptor on every connection, so neighbors drop the edge at once. A
//     crashed peer leaves ghost edges behind — neighbors still count the
//     dead connection toward their degree and floods silently die there.
//   - Failure detection: every PingInterval seconds each live peer pings
//     its neighbors with real Ping descriptors and awaits encoded Pongs.
//     After PingTimeout consecutive silent rounds the neighbor is declared
//     dead and the edge is torn down. Ping and Pong transmissions roll the
//     fault plane's message-loss schedule, so a lossy substrate produces
//     false positives exactly as it would in deployment.
//   - Repair: peers below their target degree draw replacement candidates
//     from a bounded per-peer HostCache — seeded from handshake
//     X-Try-Ultrapeers hints and refilled from the addresses of decoded
//     Pongs — and dial them under the fault plane's transient-failure
//     discipline, with bounded retries and exponential backoff per
//     candidate.
//
// Every decision derives from an rng stream keyed by (peer, event index),
// so a maintenance run is a pure function of (topology seed, repair seed,
// event sequence): byte-identical across runs and across any worker count
// driving measurement in between maintenance phases.

// RepairConfig shapes the overlay-maintenance loop.
type RepairConfig struct {
	// Seed roots every maintenance decision stream.
	Seed uint64
	// Repair enables the active loop (failure detection + reconnection).
	// When false the maintainer only applies churn events: polite
	// departures still tear down edges (the Bye really was sent) but
	// nobody detects crashes or rebuilds degree — the "no maintenance
	// protocol" baseline.
	Repair bool
	// PingInterval is the seconds between keepalive rounds.
	PingInterval int64
	// PingTimeout is how many consecutive unanswered rounds mark a
	// neighbor dead.
	PingTimeout int
}

// The repair dials: each peer's candidates come from a host cache of
// DefaultHostCacheSize entries.
const (
	// connectAttempts bounds candidate dials per peer per repair pass
	// (the bounded-retry half of the faults discipline).
	connectAttempts = 3
	// repairBackoffBase is the seconds before a failed candidate is
	// retried, doubled per consecutive failure (the exponential-backoff
	// half).
	repairBackoffBase int64 = 60
	// candidateFailLimit evicts a candidate from the host cache after this
	// many consecutive failed dials.
	candidateFailLimit = 4
)

// DefaultRepairConfig returns the standard maintenance parameters: 30 s
// pings and two missed rounds to declare death (the dials are the
// constants above: 32-entry host caches, three dials per pass backing off
// from 60 s).
func DefaultRepairConfig(seed uint64) RepairConfig {
	return RepairConfig{
		Seed:         seed,
		Repair:       true,
		PingInterval: 30,
		PingTimeout:  2,
	}
}

// Validate rejects configurations that cannot make progress.
func (c RepairConfig) Validate() error {
	switch {
	case c.PingInterval <= 0:
		return fmt.Errorf("gnet: repair PingInterval must be positive, got %d", c.PingInterval)
	case c.PingTimeout < 1:
		return fmt.Errorf("gnet: repair PingTimeout must be at least 1, got %d", c.PingTimeout)
	}
	return nil
}

// RepairStats counts maintenance activity.
type RepairStats struct {
	Departures       int // peers that went offline
	PoliteDepartures int // departures announced with a Bye
	Arrivals         int // peers that came (back) online
	PingsSent        int
	PongsReceived    int
	PingsLost        int // ping or pong dropped by the fault plane
	FailuresDetected int // edges torn down by ping timeout
	ByesReceived     int // edges torn down by a received Bye
	RepairAttempts   int // candidate dials
	RepairFailures   int // dials that failed (faulted or full)
	RepairSuccesses  int // new edges established
	HostRejected     int // cached candidates dropped before dialing (dead or self)
}

// Maintainer drives overlay maintenance for one network. It is single-
// goroutine: callers alternate maintenance (PeerUp/PeerDown/Tick) with
// read-only measurement phases. Construction installs the maintainer's
// liveness view into the network's fault plane, so floods and dials
// observe the same session state the maintainer does.
type Maintainer struct {
	nw    *Network
	cfg   RepairConfig
	plane *faults.Plane
	// bootstrap lists well-known fallback addresses (the GWebCache role).
	bootstrap []Addr

	online  []bool
	caches  []*HostCache
	missed  []map[int]int    // consecutive silent ping rounds, per directed edge
	seq     []uint64         // per-peer event index for stream derivation
	fails   []map[Addr]int   // consecutive dial failures per candidate
	retryAt []map[Addr]int64 // earliest next dial per backed-off candidate
	base    *rng.Source
	round   int64
	stats   RepairStats

	// om mirrors the RepairStats increments into live registry counters
	// when the network is instrumented; its zero value (nil handles) is a
	// no-op, so the increments below run unconditionally.
	om maintMetrics
}

// NewMaintainer wires a maintainer to nw. initialOnline seeds the liveness
// view (nil marks everyone online; the slice is copied). If the network has
// no fault plane an inert one is attached so liveness is observable by
// floods and dials.
func NewMaintainer(nw *Network, cfg RepairConfig, initialOnline []bool) (*Maintainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(nw.Peers)
	if initialOnline != nil && len(initialOnline) != n {
		return nil, fmt.Errorf("gnet: initial liveness covers %d peers, network has %d", len(initialOnline), n)
	}
	m := &Maintainer{
		nw:      nw,
		cfg:     cfg,
		online:  make([]bool, n),
		caches:  make([]*HostCache, n),
		missed:  make([]map[int]int, n),
		seq:     make([]uint64, n),
		fails:   make([]map[Addr]int, n),
		retryAt: make([]map[Addr]int64, n),
		base:    rng.NewNamed(cfg.Seed, "gnet/repair"),
	}
	var hostAdds, hostEvicts *obs.Counter
	if nw.obs != nil {
		m.om = newMaintMetrics(nw.obs.reg)
		hostAdds = nw.obs.reg.Counter("gnet_hostcache_adds_total")
		hostEvicts = nw.obs.reg.Counter("gnet_hostcache_evictions_total")
	}
	for i := 0; i < n; i++ {
		if initialOnline == nil {
			m.online[i] = true
		} else {
			m.online[i] = initialOnline[i]
		}
		m.caches[i] = NewHostCache(DefaultHostCacheSize)
		m.caches[i].Instrument(hostAdds, hostEvicts)
	}
	m.bootstrap = defaultBootstrap(nw)
	m.seedCaches()
	m.plane = nw.Faults()
	if m.plane == nil {
		m.plane = faults.New(faults.Config{Seed: cfg.Seed})
		nw.SetFaults(m.plane)
	}
	m.plane.SetLiveness(m.online)
	return m, nil
}

// defaultBootstrap picks a deterministic handful of well-known hosts —
// ultrapeers when the topology has them — standing in for the GWebCache
// list every deployed client ships with.
func defaultBootstrap(nw *Network) []Addr {
	const want = 4
	var out []Addr
	for _, p := range nw.Peers {
		if nw.Config.UltrapeerFrac > 0 && !p.Ultrapeer {
			continue
		}
		out = append(out, p.Addr)
		if len(out) == want {
			break
		}
	}
	return out
}

// seedCaches fills each peer's host cache the way the handshake does: every
// neighbor advertises its own X-Try-Ultrapeers hints, which travel as a
// formatted header and are re-parsed on receipt.
func (m *Maintainer) seedCaches() {
	for _, p := range m.nw.Peers {
		for _, nb := range p.Neighbors {
			hints := FormatTryUltrapeers(m.nw.tryAddrs(m.nw.Peers[nb]))
			for _, a := range ParseTryUltrapeers(hints) {
				if a != p.Addr {
					m.caches[p.ID].Add(a)
				}
			}
		}
	}
}

// Online exposes the liveness view (shared, read-only for callers).
func (m *Maintainer) Online() []bool { return m.online }

// Stats returns a copy of the maintenance counters.
func (m *Maintainer) Stats() RepairStats { return m.stats }

// stream derives the decision stream for peer id's next maintenance event.
func (m *Maintainer) stream(id int) *rng.Source {
	s := m.seq[id]
	m.seq[id]++
	return m.base.Derive(fmt.Sprintf("peer/%d/event/%d", id, s))
}

// PeerDown applies a departure event. A polite departure sends an encoded
// Bye on every live connection, so neighbors tear the edge down at once; a
// crash leaves ghost edges for the failure detector to find.
func (m *Maintainer) PeerDown(id int, polite bool) error {
	if id < 0 || id >= len(m.online) {
		return fmt.Errorf("gnet: departure of peer %d out of range", id)
	}
	if !m.online[id] {
		return nil
	}
	m.online[id] = false
	m.missed[id] = nil
	m.stats.Departures++
	m.om.departures.Inc()
	if !polite {
		return nil
	}
	m.stats.PoliteDepartures++
	m.om.politeDepartures.Inc()
	raw, err := gmsg.Encode(&gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(uint64(id), m.seq[id]), Type: gmsg.TypeBye, TTL: 1},
		Bye:    &gmsg.Bye{Code: gmsg.ByeCodeShutdown, Reason: "session over"},
	})
	if err != nil {
		return err
	}
	for _, nb := range append([]int(nil), m.nw.Peers[id].Neighbors...) {
		// The Bye travels the wire: each neighbor decodes the descriptor
		// before acting on it. Connections are reliable, so it always
		// arrives where a live socket exists.
		if _, _, err := gmsg.Decode(raw); err != nil {
			return fmt.Errorf("gnet: bye decode: %w", err)
		}
		m.nw.DisconnectPeers(id, nb)
		if m.missed[nb] != nil {
			delete(m.missed[nb], id)
		}
		if m.online[nb] {
			m.stats.ByesReceived++
			m.om.byesReceived.Inc()
		}
	}
	return nil
}

// PeerUp applies an arrival event at sim-time now. Under repair the
// returning peer tears down its stale half-open connections (neighbors see
// the close immediately) and bootstraps fresh ones from its host cache;
// without repair the passive substrate keeps whatever edges survived.
func (m *Maintainer) PeerUp(id int, now int64) error {
	if id < 0 || id >= len(m.online) {
		return fmt.Errorf("gnet: arrival of peer %d out of range", id)
	}
	if m.online[id] {
		return nil
	}
	m.online[id] = true
	m.missed[id] = nil
	m.stats.Arrivals++
	m.om.arrivals.Inc()
	if !m.cfg.Repair {
		return nil
	}
	for _, nb := range append([]int(nil), m.nw.Peers[id].Neighbors...) {
		m.nw.DisconnectPeers(id, nb)
		if m.missed[nb] != nil {
			delete(m.missed[nb], id)
		}
	}
	m.connectToward(id, now, m.stream(id))
	return nil
}

// Tick runs one maintenance round at sim-time now: every live peer pings
// its neighbors, times silent ones out, and repairs its degree from the
// host cache. A no-op when repair is disabled.
func (m *Maintainer) Tick(now int64) {
	if !m.cfg.Repair {
		return
	}
	m.round++
	for u := range m.nw.Peers {
		if !m.online[u] {
			continue
		}
		r := m.stream(u)
		m.pingNeighbors(u, r)
		m.connectToward(u, now, r)
	}
}

// pingSalt ties round u's ping-loss schedule to (seed, peer, round) so the
// decisions are pure functions, independent of execution interleaving.
func (m *Maintainer) pingSalt(u int) uint64 {
	return m.cfg.Seed ^ (uint64(u) * 0x9e3779b97f4a7c15) ^ (uint64(m.round) * 0xbf58476d1ce4e5b9)
}

// pingNeighbors runs peer u's keepalive round: encode one Ping, send it to
// every neighbor, count Pongs, and tear down edges that have been silent
// for PingTimeout consecutive rounds.
func (m *Maintainer) pingNeighbors(u int, r *rng.Source) {
	nw := m.nw
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)
	if len(neighbors) == 0 {
		return
	}
	ping := &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(r.Uint64(), r.Uint64()), Type: gmsg.TypePing, TTL: 1},
	}
	pingRaw, err := gmsg.Encode(ping)
	if err != nil {
		panic(err) // static message shape; cannot fail
	}
	salt := m.pingSalt(u)
	for _, v := range neighbors {
		m.stats.PingsSent++
		m.om.pingsSent.Inc()
		answered := false
		if m.online[v] {
			lostPing := m.plane.MessageLossAt(salt, v, 0)
			lostPong := m.plane.MessageLossAt(salt, u, uint64(v)+1)
			// Keepalives compete for the same bounded ingress queue as
			// queries: a shed ping looks exactly like a lost one, so
			// overload degrades failure detection the way real saturation
			// does. The loss rolls above stay unconditional — they are pure
			// draws, so a disabled capacity plane changes nothing.
			if cp := nw.capacity; cp.Enabled() && !cp.AdmitPing(salt, v) {
				m.stats.PingsLost++
				m.om.pingsLost.Inc()
			} else if lostPing || lostPong {
				m.stats.PingsLost++
				m.om.pingsLost.Inc()
			} else {
				answered = true
				m.receivePongs(u, v, pingRaw)
			}
		}
		if answered {
			if m.missed[u] != nil {
				delete(m.missed[u], v)
			}
			continue
		}
		if m.missed[u] == nil {
			m.missed[u] = make(map[int]int)
		}
		m.missed[u][v]++
		if m.missed[u][v] >= m.cfg.PingTimeout {
			nw.DisconnectPeers(u, v)
			delete(m.missed[u], v)
			if m.missed[v] != nil {
				delete(m.missed[v], u)
			}
			m.stats.FailuresDetected++
			m.om.failuresDetected.Inc()
		}
	}
}

// receivePongs delivers peer v's answer to u's ping: the Ping is decoded at
// v, which responds with a Pong for itself plus cached Pongs for its
// neighbors (pong caching); u decodes each Pong and feeds the carried
// address into its host cache — the Pong address semantics that keep
// caches fresh as the overlay shifts.
func (m *Maintainer) receivePongs(u, v int, pingRaw []byte) {
	nw := m.nw
	ping, _, err := gmsg.Decode(pingRaw)
	if err != nil {
		panic(fmt.Sprintf("gnet: ping decode: %v", err))
	}
	m.stats.PongsReceived++
	m.om.pongsReceived.Inc()
	answer := func(q *Peer, hops byte) {
		raw, err := gmsg.Encode(&gmsg.Message{
			Header: gmsg.Header{GUID: ping.Header.GUID, Type: gmsg.TypePong, TTL: ping.Header.Hops + 1, Hops: hops},
			Pong: &gmsg.Pong{
				Port: q.Addr.Port, IP: q.Addr.IP,
				FilesCount: uint32(len(q.Library)),
			},
		})
		if err != nil {
			panic(err)
		}
		pong, _, err := gmsg.Decode(raw)
		if err != nil {
			panic(fmt.Sprintf("gnet: pong decode: %v", err))
		}
		m.learnAddr(u, Addr{IP: pong.Pong.IP, Port: pong.Pong.Port})
	}
	answer(nw.Peers[v], 0)
	// Deployed pong caches answer with roughly ten entries, not the whole
	// neighbor list; the first maxCachedPongs in neighbor order keeps the
	// reply bounded and deterministic.
	const maxCachedPongs = 10
	sent := 0
	for _, nb := range nw.Peers[v].Neighbors {
		if nb == u {
			continue
		}
		answer(nw.Peers[nb], 1)
		if sent++; sent >= maxCachedPongs {
			break
		}
	}
}

// learnAddr feeds a discovered address into peer u's host cache, keeping
// only viable repair candidates (ultrapeers, on two-tier topologies).
func (m *Maintainer) learnAddr(u int, a Addr) {
	p := m.nw.PeerByAddr(a)
	if p == nil || p.ID == u {
		return
	}
	if m.nw.Config.UltrapeerFrac > 0 && !p.Ultrapeer {
		return
	}
	m.caches[u].Add(a)
}

// TargetDegree exposes peer id's repair target (see targetDegree) so a
// driving simulation can observe degree deficits without duplicating the
// topology-class rules.
func (m *Maintainer) TargetDegree(id int) int { return m.targetDegree(id) }

// targetDegree is the connection count peer u repairs toward: the same
// targets the builder wired (ultrapeer mesh degree, leaf attachment count,
// or flat degree).
func (m *Maintainer) targetDegree(u int) int {
	if m.nw.Config.UltrapeerFrac <= 0 {
		return m.nw.Config.FlatDegree
	}
	if m.nw.Peers[u].Ultrapeer {
		return m.nw.Config.UltraDegree
	}
	return LeafUltras
}

// repairDegree counts the connections that count toward peer u's repair
// target. On two-tier topologies repair maintains the ultrapeer links
// only: an ultrapeer's mesh degree excludes its attached leaves (which
// come and go on their own), and a leaf's attachments are all ultrapeers
// anyway. Flat topologies count everything.
func (m *Maintainer) repairDegree(u int) int {
	if m.nw.Config.UltrapeerFrac <= 0 {
		return len(m.nw.Peers[u].Neighbors)
	}
	d := 0
	for _, nb := range m.nw.Peers[u].Neighbors {
		if m.nw.Peers[nb].Ultrapeer {
			d++
		}
	}
	return d
}

// acceptsConnection reports whether candidate cand can take one more
// connection from u, mirroring the builder's capacity slack: the ultrapeer
// mesh is bounded (counting mesh links only), leaf attachment is not.
func (m *Maintainer) acceptsConnection(u int, cand *Peer) bool {
	if m.nw.Config.UltrapeerFrac <= 0 {
		return len(cand.Neighbors) < m.nw.Config.FlatDegree+4
	}
	if m.nw.Peers[u].Ultrapeer {
		return m.repairDegree(cand.ID) < m.nw.Config.UltraDegree+4
	}
	return true
}

// connectToward repairs peer u's degree at sim-time now: bounded candidate
// dials from the host cache, transient failures re-rolled through the
// fault plane, per-candidate exponential backoff, eviction after repeated
// failure. A successful dial performs the handshake's X-Try exchange in
// both directions, refilling both caches.
func (m *Maintainer) connectToward(u int, now int64, r *rng.Source) {
	nw := m.nw
	target := m.targetDegree(u)
	if m.repairDegree(u) >= target {
		return
	}
	if m.caches[u].Len() == 0 {
		for _, a := range m.bootstrap {
			if a != nw.Peers[u].Addr {
				m.caches[u].Add(a)
			}
		}
	}
	self := nw.Peers[u].Addr
	keep := func(a Addr) bool {
		// Hints that resolve to the repairing peer itself or to a peer that
		// is currently offline are rejected before any dial is attempted:
		// dialing a dead address can only burn a ConnectAttempt and push
		// the candidate into backoff, so the cache screens them out (they
		// stay cached — a dead peer may return). Each screening is counted.
		if a == self {
			m.stats.HostRejected++
			m.om.hostRejected.Inc()
			return false
		}
		p := nw.PeerByAddr(a)
		if p == nil || nw.connected(u, p.ID) {
			return false
		}
		if !m.online[p.ID] {
			m.stats.HostRejected++
			m.om.hostRejected.Inc()
			return false
		}
		if at, ok := m.retryAt[u][a]; ok && now < at {
			return false
		}
		return true
	}
	for attempt := 0; attempt < connectAttempts && m.repairDegree(u) < target; attempt++ {
		addr, ok := m.caches[u].Pick(r, keep)
		if !ok {
			return
		}
		m.stats.RepairAttempts++
		m.om.repairAttempts.Inc()
		cand := nw.PeerByAddr(addr)
		if !m.plane.DialTimeout(cand.ID) && m.acceptsConnection(u, cand) {
			if err := nw.ConnectPeers(u, cand.ID); err != nil {
				panic(err) // keep filtered self and duplicates already
			}
			m.stats.RepairSuccesses++
			m.om.repairSuccesses.Inc()
			if m.fails[u] != nil {
				delete(m.fails[u], addr)
				delete(m.retryAt[u], addr)
			}
			// Handshake X-Try exchange, both directions, over the header
			// string format the wire uses.
			for _, a := range ParseTryUltrapeers(FormatTryUltrapeers(nw.tryAddrs(cand))) {
				m.learnAddr(u, a)
			}
			for _, a := range ParseTryUltrapeers(FormatTryUltrapeers(nw.tryAddrs(nw.Peers[u]))) {
				m.learnAddr(cand.ID, a)
			}
			continue
		}
		m.stats.RepairFailures++
		m.om.repairFailures.Inc()
		if m.fails[u] == nil {
			m.fails[u] = make(map[Addr]int)
			m.retryAt[u] = make(map[Addr]int64)
		}
		m.fails[u][addr]++
		if m.fails[u][addr] >= candidateFailLimit {
			m.caches[u].Remove(addr)
			delete(m.fails[u], addr)
			delete(m.retryAt[u], addr)
			continue
		}
		backoff := repairBackoffBase << (m.fails[u][addr] - 1)
		m.retryAt[u][addr] = now + backoff
	}
}
