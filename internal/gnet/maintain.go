package gnet

import (
	"fmt"
	"strconv"

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
//     its neighbors and awaits their Pongs. After PingTimeout consecutive
//     silent rounds the neighbor is declared dead and the edge is torn
//     down. Ping and Pong transmissions roll the fault plane's
//     message-loss schedule, so a lossy substrate produces false positives
//     exactly as it would in deployment.
//   - Repair: peers below their target degree draw replacement candidates
//     from a bounded per-peer HostCache — seeded from handshake
//     X-Try-Ultrapeers hints and refilled from the addresses Pongs carry —
//     and dial them under the fault plane's transient-failure discipline,
//     with bounded retries and exponential backoff per candidate.
//
// Keepalive Pongs and X-Try hints are handed over as values: the peers
// whose addresses a decoded Pong or a parsed header would yield are read
// straight from the network, as peer IDs (PeerByAddr maps addresses to IDs
// one to one, so the host caches, dial screens and backoff state hold IDs
// too). TestKeepaliveMatchesWireReference holds them to the encoded
// descriptors and formatted headers, which live on in maintain_test.go as
// the reference; only the Bye is encoded here.
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
	// bootstrap lists well-known fallback peers (the GWebCache role).
	bootstrap []int32

	online  []bool
	caches  []*HostCache
	missed  [][]silentEdge    // per peer, its neighbors' unanswered ping rounds
	seq     []uint64          // per-peer event index for stream derivation
	fails   []map[int32]int   // consecutive dial failures per candidate
	retryAt []map[int32]int64 // earliest next dial per backed-off candidate
	base    *rng.Source
	round   int64
	stats   RepairStats

	// om mirrors the RepairStats increments into live registry counters
	// when the network is instrumented; its zero value (nil handles) is a
	// no-op, so the increments below run unconditionally.
	om maintMetrics

	// touched logs, once each, the peers whose live repair degree or
	// liveness an event may have moved since the last DrainTouched; marked
	// is its membership set. It starts with every peer marked.
	touched []int
	marked  []bool

	// Scratch reused across events, so no message allocates: the encoded
	// Bye, the stream name, neighbor-list and X-Try hint copies.
	wire      []byte
	name      []byte
	nbScratch []int
	tries     []int32
}

// silentEdge counts the consecutive keepalive rounds in which a peer's
// ping to neighbor nb went unanswered. A peer lists only the neighbors
// with a count above zero: an answer drops the entry.
type silentEdge struct{ nb, rounds int32 }

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
		missed:  make([][]silentEdge, n),
		seq:     make([]uint64, n),
		fails:   make([]map[int32]int, n),
		retryAt: make([]map[int32]int64, n),
		base:    rng.NewNamed(cfg.Seed, "gnet/repair"),
		touched: make([]int, n),
		marked:  make([]bool, n),
	}
	var hostAdds, hostEvicts *obs.Counter
	if nw.obs != nil {
		m.om = newMaintMetrics(nw.obs.reg)
		hostAdds = nw.obs.reg.Counter("gnet_hostcache_adds_total")
		hostEvicts = nw.obs.reg.Counter("gnet_hostcache_evictions_total")
	}
	for i := 0; i < n; i++ {
		m.touched[i], m.marked[i] = i, true
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
func defaultBootstrap(nw *Network) []int32 {
	const want = 4
	var out []int32
	for _, p := range nw.Peers {
		if nw.Config.UltrapeerFrac > 0 && !p.Ultrapeer {
			continue
		}
		out = append(out, int32(p.ID))
		if len(out) == want {
			break
		}
	}
	return out
}

// seedCaches fills each peer's host cache the way the handshake does: every
// neighbor advertises its own X-Try-Ultrapeers hints.
func (m *Maintainer) seedCaches() {
	for _, p := range m.nw.Peers {
		for _, nb := range p.Neighbors {
			for _, id := range m.receiveTries(m.nw.Peers[nb]) {
				if int(id) != p.ID {
					m.caches[p.ID].Add(id)
				}
			}
		}
	}
}

// receiveTries returns the peers whose addresses the X-Try-Ultrapeers hints
// from advertises, as the receiving side of a handshake parses them: the
// header round trip returns the addresses it was given, so they are handed
// over as values. The result aliases scratch valid until the next call.
func (m *Maintainer) receiveTries(from *Peer) []int32 {
	m.tries = m.nw.appendTries(m.tries[:0], from)
	return m.tries
}

// Online exposes the liveness view (shared, read-only for callers).
func (m *Maintainer) Online() []bool { return m.online }

// Stats returns a copy of the maintenance counters.
func (m *Maintainer) Stats() RepairStats { return m.stats }

// DrainTouched calls fn once for each peer whose deficit judgement an event
// may have moved since the previous drain, then empties the log. Only the
// maintainer mutates topology and liveness during a scenario, and a peer's
// live repair degree reads only its own liveness, its neighbor list and its
// neighbors' liveness; so the log holds both endpoints of every edge the
// maintainer connects or disconnects, and every peer whose liveness flips
// together with every neighbor it lists then (adjacency is symmetric, and a
// crash leaves its ghost edges listed). fn must not run maintenance.
func (m *Maintainer) DrainTouched(fn func(id int)) {
	for _, id := range m.touched {
		m.marked[id] = false
		fn(id)
	}
	m.touched = m.touched[:0]
}

// touch logs peer id for the next DrainTouched.
func (m *Maintainer) touch(id int) {
	if !m.marked[id] {
		m.marked[id] = true
		m.touched = append(m.touched, id)
	}
}

// setOnline flips peer id's liveness, logging it and every neighbor whose
// live degree counts it.
func (m *Maintainer) setOnline(id int, up bool) {
	m.online[id] = up
	m.touch(id)
	for _, nb := range m.nw.Peers[id].Neighbors {
		m.touch(nb)
	}
}

// disconnect tears down the edge a–b, logging both endpoints.
func (m *Maintainer) disconnect(a, b int) {
	m.nw.DisconnectPeers(a, b)
	m.touch(a)
	m.touch(b)
}

// neighbors copies peer id's neighbor list into scratch, for a loop that
// disconnects as it goes. The copy is valid until the next call.
func (m *Maintainer) neighbors(id int) []int {
	m.nbScratch = append(m.nbScratch[:0], m.nw.Peers[id].Neighbors...)
	return m.nbScratch
}

// stream derives the decision stream for peer id's next maintenance event,
// named "peer/<id>/event/<n>". It returns the stream by value, so a
// caller's stream lives on its stack.
func (m *Maintainer) stream(id int) rng.Source {
	s := m.seq[id]
	m.seq[id]++
	m.name = append(m.name[:0], "peer/"...)
	m.name = strconv.AppendInt(m.name, int64(id), 10)
	m.name = append(m.name, "/event/"...)
	m.name = strconv.AppendUint(m.name, s, 10)
	return *m.base.Derive(string(m.name))
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
	m.setOnline(id, false)
	m.missed[id] = m.missed[id][:0]
	m.stats.Departures++
	m.om.departures.Inc()
	if !polite {
		return nil
	}
	m.stats.PoliteDepartures++
	m.om.politeDepartures.Inc()
	raw, err := gmsg.AppendEncode(m.wire[:0], &gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(uint64(id), m.seq[id]), Type: gmsg.TypeBye, TTL: 1},
		Bye:    &gmsg.Bye{Code: gmsg.ByeCodeShutdown, Reason: "session over"},
	})
	if err != nil {
		return err
	}
	m.wire = raw
	for _, nb := range m.neighbors(id) {
		// The Bye travels the wire: each neighbor decodes the descriptor
		// before acting on it. Connections are reliable, so it always
		// arrives where a live socket exists.
		if _, _, err := gmsg.Decode(raw); err != nil {
			return fmt.Errorf("gnet: bye decode: %w", err)
		}
		m.disconnect(id, nb)
		m.clearSilent(nb, id)
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
	m.setOnline(id, true)
	m.missed[id] = m.missed[id][:0]
	m.stats.Arrivals++
	m.om.arrivals.Inc()
	if !m.cfg.Repair {
		return nil
	}
	for _, nb := range m.neighbors(id) {
		m.disconnect(id, nb)
		m.clearSilent(nb, id)
	}
	r := m.stream(id)
	m.connectToward(id, now, &r)
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
		m.pingNeighbors(u, &r)
		m.connectToward(u, now, &r)
	}
}

// pingSalt ties round u's ping-loss schedule to (seed, peer, round) so the
// decisions are pure functions, independent of execution interleaving.
func (m *Maintainer) pingSalt(u int) uint64 {
	return m.cfg.Seed ^ (uint64(u) * 0x9e3779b97f4a7c15) ^ (uint64(m.round) * 0xbf58476d1ce4e5b9)
}

// pingNeighbors runs peer u's keepalive round: ping every neighbor, count
// Pongs, and tear down edges that have been silent for PingTimeout
// consecutive rounds.
func (m *Maintainer) pingNeighbors(u int, r *rng.Source) {
	nw := m.nw
	neighbors := m.neighbors(u)
	if len(neighbors) == 0 {
		return
	}
	// The Ping's GUID takes two draws. Nothing reads it, but drawing it
	// keeps every later decision of the stream where it was.
	r.Uint64()
	r.Uint64()
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
				m.receivePongs(u, v)
			}
		}
		if answered {
			m.clearSilent(u, v)
			continue
		}
		if m.countSilent(u, v) >= m.cfg.PingTimeout {
			m.disconnect(u, v)
			m.clearSilent(u, v)
			m.clearSilent(v, u)
			m.stats.FailuresDetected++
			m.om.failuresDetected.Inc()
		}
	}
}

// clearSilent resets u's count of silent rounds toward v: v answered, or the
// edge is gone.
func (m *Maintainer) clearSilent(u, v int) {
	s := m.missed[u]
	for i, e := range s {
		if int(e.nb) == v {
			s[i] = s[len(s)-1]
			m.missed[u] = s[:len(s)-1]
			return
		}
	}
}

// countSilent counts one more unanswered round of u's pings to v and returns
// the consecutive count.
func (m *Maintainer) countSilent(u, v int) int {
	s := m.missed[u]
	for i := range s {
		if int(s[i].nb) == v {
			s[i].rounds++
			return int(s[i].rounds)
		}
	}
	m.missed[u] = append(s, silentEdge{nb: int32(v), rounds: 1})
	return 1
}

// receivePongs delivers peer v's answer to u's ping: a Pong for v itself
// plus cached Pongs for its neighbors (pong caching). u feeds the peer each
// carries into its host cache — the Pong address semantics that keep caches
// fresh as the overlay shifts.
func (m *Maintainer) receivePongs(u, v int) {
	m.stats.PongsReceived++
	m.om.pongsReceived.Inc()
	var buf [1 + maxCachedPongs]int32
	for _, id := range m.nw.pongPeers(buf[:0], u, v) {
		m.learnPeer(u, id)
	}
}

// maxCachedPongs bounds the cached Pongs in one answer: deployed pong caches
// answer with roughly ten entries, not the whole neighbor list.
const maxCachedPongs = 10

// pongPeers appends to dst the peers whose addresses peer v's Pongs carry
// back to u: v itself, then the first maxCachedPongs of v's other neighbors
// in neighbor order, which keeps the reply bounded and deterministic.
func (nw *Network) pongPeers(dst []int32, u, v int) []int32 {
	dst = append(dst, int32(v))
	sent := 0
	for _, nb := range nw.Peers[v].Neighbors {
		if nb == u {
			continue
		}
		dst = append(dst, int32(nb))
		if sent++; sent >= maxCachedPongs {
			break
		}
	}
	return dst
}

// learnPeer feeds a discovered peer into peer u's host cache, keeping only
// viable repair candidates (ultrapeers, on two-tier topologies).
func (m *Maintainer) learnPeer(u int, id int32) {
	if int(id) == u || (m.nw.relay != nil && !m.nw.relay[id]) {
		return
	}
	m.caches[u].Add(id)
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
		for _, id := range m.bootstrap {
			if int(id) != u {
				m.caches[u].Add(id)
			}
		}
	}
	keep := func(id int32) bool {
		// Hints that resolve to the repairing peer itself or to a peer that
		// is currently offline are rejected before any dial is attempted:
		// dialing a dead address can only burn a ConnectAttempt and push
		// the candidate into backoff, so the cache screens them out (they
		// stay cached — a dead peer may return). Each screening is counted.
		if int(id) == u {
			m.stats.HostRejected++
			m.om.hostRejected.Inc()
			return false
		}
		if nw.connected(u, int(id)) {
			return false
		}
		if !m.online[id] {
			m.stats.HostRejected++
			m.om.hostRejected.Inc()
			return false
		}
		if at, ok := m.retryAt[u][id]; ok && now < at {
			return false
		}
		return true
	}
	for attempt := 0; attempt < connectAttempts && m.repairDegree(u) < target; attempt++ {
		id, ok := m.caches[u].Pick(r, keep)
		if !ok {
			return
		}
		m.stats.RepairAttempts++
		m.om.repairAttempts.Inc()
		cand := nw.Peers[id]
		if !m.plane.DialTimeout(cand.ID) && m.acceptsConnection(u, cand) {
			if err := nw.ConnectPeers(u, cand.ID); err != nil {
				panic(err) // keep filtered self and duplicates already
			}
			m.touch(u)
			m.touch(cand.ID)
			m.stats.RepairSuccesses++
			m.om.repairSuccesses.Inc()
			if m.fails[u] != nil {
				delete(m.fails[u], id)
				delete(m.retryAt[u], id)
			}
			// Handshake X-Try exchange, both directions.
			for _, hint := range m.receiveTries(cand) {
				m.learnPeer(u, hint)
			}
			for _, hint := range m.receiveTries(nw.Peers[u]) {
				m.learnPeer(cand.ID, hint)
			}
			continue
		}
		m.stats.RepairFailures++
		m.om.repairFailures.Inc()
		if m.fails[u] == nil {
			m.fails[u] = make(map[int32]int)
			m.retryAt[u] = make(map[int32]int64)
		}
		m.fails[u][id]++
		if m.fails[u][id] >= candidateFailLimit {
			m.caches[u].Remove(id)
			delete(m.fails[u], id)
			delete(m.retryAt[u], id)
			continue
		}
		backoff := repairBackoffBase << (m.fails[u][id] - 1)
		m.retryAt[u][id] = now + backoff
	}
}
