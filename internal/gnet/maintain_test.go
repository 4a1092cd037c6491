package gnet

import (
	"fmt"
	"slices"
	"testing"

	"querycentric/internal/capacity"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/obs"
)

// maintTestNetwork builds a small two-tier overlay with a maintainer,
// everyone initially online.
func maintTestNetwork(t *testing.T, seed uint64, cfg RepairConfig) (*Network, *Maintainer) {
	t.Helper()
	return maintNetwork(t, DefaultConfig(seed), cfg, nil)
}

// maintNetwork builds a 120-peer overlay of shape ncfg, lets setup (when
// non-nil) attach planes or a registry before the maintainer is wired, and
// wires one with everyone initially online.
func maintNetwork(t *testing.T, ncfg Config, cfg RepairConfig, setup func(*Network)) (*Network, *Maintainer) {
	t.Helper()
	nw, err := New(ncfg, 120)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if setup != nil {
		setup(nw)
	}
	m, err := NewMaintainer(nw, cfg, nil)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	return nw, m
}

// degreeOf counts peer id's current connections.
func degreeOf(nw *Network, id int) int { return len(nw.Peers[id].Neighbors) }

func firstUltra(nw *Network) int {
	for _, p := range nw.Peers {
		if p.Ultrapeer {
			return p.ID
		}
	}
	return 0
}

func TestRepairConfigValidate(t *testing.T) {
	if err := DefaultRepairConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*RepairConfig){
		func(c *RepairConfig) { c.PingInterval = 0 },
		func(c *RepairConfig) { c.PingTimeout = 0 },
	}
	for i, mutate := range bad {
		c := DefaultRepairConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

func TestPoliteDepartureTearsDownEdges(t *testing.T) {
	nw, m := maintTestNetwork(t, 11, DefaultRepairConfig(11))
	u := firstUltra(nw)
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)
	if len(neighbors) == 0 {
		t.Fatal("test ultrapeer has no neighbors")
	}
	if err := m.PeerDown(u, true); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	if d := degreeOf(nw, u); d != 0 {
		t.Fatalf("polite leaver kept %d edges", d)
	}
	for _, nb := range neighbors {
		if nw.connected(u, nb) {
			t.Fatalf("neighbor %d still holds edge to polite leaver", nb)
		}
	}
	if got := m.Stats().ByesReceived; got != len(neighbors) {
		t.Fatalf("ByesReceived = %d, want %d", got, len(neighbors))
	}
	if m.Online()[u] {
		t.Fatal("departed peer still marked online")
	}
}

func TestCrashLeavesGhostEdgesUntilDetected(t *testing.T) {
	cfg := DefaultRepairConfig(12)
	cfg.PingTimeout = 2
	nw, m := maintTestNetwork(t, 12, cfg)
	u := firstUltra(nw)
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)
	if err := m.PeerDown(u, false); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	// The crash is silent: every edge survives until the detector acts.
	if d := degreeOf(nw, u); d != len(neighbors) {
		t.Fatalf("crash tore down edges immediately: degree %d, want %d", d, len(neighbors))
	}
	m.Tick(30)
	if d := degreeOf(nw, u); d != len(neighbors) {
		t.Fatalf("one silent round already disconnected the crashed peer (PingTimeout=2)")
	}
	m.Tick(60)
	if d := degreeOf(nw, u); d != 0 {
		t.Fatalf("crashed peer still has %d ghost edges after PingTimeout rounds", d)
	}
	if got := m.Stats().FailuresDetected; got != len(neighbors) {
		t.Fatalf("FailuresDetected = %d, want %d", got, len(neighbors))
	}
}

func TestRepairRestoresDegree(t *testing.T) {
	cfg := DefaultRepairConfig(13)
	nw, m := maintTestNetwork(t, 13, cfg)
	u := firstUltra(nw)
	// Survivors adjacent to the crash drop below target, then repair from
	// their host caches.
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)
	if err := m.PeerDown(u, false); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	for round := int64(1); round <= 6; round++ {
		m.Tick(round * cfg.PingInterval)
	}
	if m.Stats().RepairSuccesses == 0 {
		t.Fatal("no repair connections were made")
	}
	deficit := 0
	for _, nb := range neighbors {
		if d, target := m.repairDegree(nb), m.targetDegree(nb); d < target {
			deficit += target - d
		}
	}
	if deficit > 1 {
		t.Fatalf("survivors still %d connections short of target after repair", deficit)
	}
}

func TestRejoinReconnects(t *testing.T) {
	cfg := DefaultRepairConfig(14)
	nw, m := maintTestNetwork(t, 14, cfg)
	u := firstUltra(nw)
	if err := m.PeerDown(u, true); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	m.Tick(30)
	if err := m.PeerUp(u, 60); err != nil {
		t.Fatalf("PeerUp: %v", err)
	}
	if !m.Online()[u] {
		t.Fatal("rejoined peer not marked online")
	}
	if degreeOf(nw, u) == 0 {
		t.Fatal("rejoined peer bootstrapped no connections")
	}
	for _, nb := range nw.Peers[u].Neighbors {
		if !nw.connected(nb, u) {
			t.Fatalf("asymmetric edge %d<->%d after rejoin", u, nb)
		}
	}
}

func TestNoRepairIsPassive(t *testing.T) {
	cfg := DefaultRepairConfig(15)
	cfg.Repair = false
	nw, m := maintTestNetwork(t, 15, cfg)
	u := firstUltra(nw)
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)

	// A crash leaves ghost edges and no tick ever removes them.
	if err := m.PeerDown(u, false); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	m.Tick(30)
	m.Tick(60)
	if d := degreeOf(nw, u); d != len(neighbors) {
		t.Fatalf("repair-off tick mutated topology: degree %d, want %d", d, len(neighbors))
	}
	// The ghost edges resume when the peer returns.
	if err := m.PeerUp(u, 90); err != nil {
		t.Fatalf("PeerUp: %v", err)
	}
	if d := degreeOf(nw, u); d != len(neighbors) {
		t.Fatalf("repair-off rejoin changed degree to %d, want %d", d, len(neighbors))
	}

	// A polite departure still tears down edges (the Bye really was sent)
	// and nothing ever rebuilds them: erosion.
	if err := m.PeerDown(u, true); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	if err := m.PeerUp(u, 120); err != nil {
		t.Fatalf("PeerUp: %v", err)
	}
	m.Tick(150)
	if d := degreeOf(nw, u); d != 0 {
		t.Fatalf("repair-off rejoin rebuilt %d connections", d)
	}
}

// snapshotTopology serializes adjacency for equality comparison.
func snapshotTopology(nw *Network) string {
	s := ""
	for _, p := range nw.Peers {
		s += fmt.Sprintf("%d:%v;", p.ID, p.Neighbors)
	}
	return s
}

func TestMaintainerDeterminism(t *testing.T) {
	run := func() (string, RepairStats) {
		cfg := DefaultRepairConfig(16)
		nw, m := maintTestNetwork(t, 16, cfg)
		u := firstUltra(nw)
		if err := m.PeerDown(u, false); err != nil {
			t.Fatalf("PeerDown: %v", err)
		}
		if err := m.PeerDown((u+7)%len(nw.Peers), true); err != nil {
			t.Fatalf("PeerDown: %v", err)
		}
		for round := int64(1); round <= 4; round++ {
			m.Tick(round * cfg.PingInterval)
		}
		if err := m.PeerUp(u, 150); err != nil {
			t.Fatalf("PeerUp: %v", err)
		}
		m.Tick(180)
		return snapshotTopology(nw), m.Stats()
	}
	topo1, stats1 := run()
	topo2, stats2 := run()
	if topo1 != topo2 {
		t.Fatal("same-seed maintenance produced different topologies")
	}
	if stats1 != stats2 {
		t.Fatalf("same-seed maintenance produced different stats:\n%+v\n%+v", stats1, stats2)
	}
}

// TestPingTimeoutSingleRoundBoundary pins the PingTimeout=1 edge: a single
// silent round is enough to tear an edge down — the most aggressive legal
// detector — while PingTimeout=0 never reaches a maintainer at all
// (rejected by Validate, so the zero value cannot silently mean "never
// detect").
func TestPingTimeoutSingleRoundBoundary(t *testing.T) {
	cfg := DefaultRepairConfig(18)
	cfg.PingTimeout = 1
	nw, m := maintTestNetwork(t, 18, cfg)
	u := firstUltra(nw)
	neighbors := append([]int(nil), nw.Peers[u].Neighbors...)
	if err := m.PeerDown(u, false); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	m.Tick(cfg.PingInterval)
	if d := degreeOf(nw, u); d != 0 {
		t.Fatalf("PingTimeout=1 left %d ghost edges after one round", d)
	}
	if got := m.Stats().FailuresDetected; got != len(neighbors) {
		t.Fatalf("FailuresDetected = %d, want %d", got, len(neighbors))
	}

	cfg.PingTimeout = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("PingTimeout=0 passed Validate")
	}
	if _, err := NewMaintainer(nw, cfg, nil); err == nil {
		t.Fatal("NewMaintainer accepted PingTimeout=0")
	}
}

// TestBackToBackSilentCrashes drives the same peer through two
// crash/detect/rejoin cycles: the second silent crash must be detected as
// cleanly as the first — no stale missed-round state, no ghost edge
// surviving, and the failure counter growing both times.
func TestBackToBackSilentCrashes(t *testing.T) {
	cfg := DefaultRepairConfig(19)
	nw, m := maintTestNetwork(t, 19, cfg)
	u := firstUltra(nw)

	now := int64(0)
	detect := func(cycle int) int {
		before := m.Stats().FailuresDetected
		if err := m.PeerDown(u, false); err != nil {
			t.Fatalf("cycle %d PeerDown: %v", cycle, err)
		}
		if degreeOf(nw, u) == 0 {
			t.Fatalf("cycle %d: silent crash tore down edges immediately", cycle)
		}
		// PingTimeout rounds of silence, plus slack for repair traffic.
		for i := 0; i < cfg.PingTimeout+1; i++ {
			now += cfg.PingInterval
			m.Tick(now)
		}
		if d := degreeOf(nw, u); d != 0 {
			t.Fatalf("cycle %d: %d ghost edges survive detection", cycle, d)
		}
		for _, p := range nw.Peers {
			for _, nb := range p.Neighbors {
				if nb == u {
					t.Fatalf("cycle %d: peer %d still lists the dead peer as neighbor", cycle, p.ID)
				}
			}
		}
		return m.Stats().FailuresDetected - before
	}

	first := detect(1)
	if first == 0 {
		t.Fatal("first crash detected no failures")
	}
	now += cfg.PingInterval
	if err := m.PeerUp(u, now); err != nil {
		t.Fatalf("PeerUp: %v", err)
	}
	if degreeOf(nw, u) == 0 {
		t.Fatal("rejoin bootstrapped no connections")
	}
	second := detect(2)
	if second == 0 {
		t.Fatal("second crash detected no failures (stale detector state)")
	}
}

// TestHostCacheScreensSelfAndDead covers the repair-hint edge case: cached
// candidates that resolve to the repairing peer itself or to a currently
// offline peer are dropped before any dial, each screening counted in
// RepairStats.HostRejected and mirrored to gnet_hostcache_rejected_total.
func TestHostCacheScreensSelfAndDead(t *testing.T) {
	reg := obs.NewRegistry()
	nw, err := New(DefaultConfig(21), 120)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	nw.Instrument(reg, nil)
	cfg := DefaultRepairConfig(21)
	m, err := NewMaintainer(nw, cfg, nil)
	if err != nil {
		t.Fatalf("NewMaintainer: %v", err)
	}
	u := firstUltra(nw)
	// Poison u's cache with itself; seeding and Pong learning never insert
	// it, but a hostile or buggy hint source could.
	m.caches[u].Add(int32(u))
	// Crash an ultrapeer neighbor of u silently: u drops below target once
	// detection fires and repairs from a cache that still holds dead (and
	// now self) addresses.
	v := -1
	for _, nb := range nw.Peers[u].Neighbors {
		if nw.Peers[nb].Ultrapeer {
			v = nb
			break
		}
	}
	if v < 0 {
		t.Fatal("no ultrapeer neighbor to crash")
	}
	if err := m.PeerDown(v, false); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	for round := int64(1); round <= 6; round++ {
		m.Tick(round * cfg.PingInterval)
	}
	st := m.Stats()
	if st.HostRejected == 0 {
		t.Fatal("no cached candidates were screened out")
	}
	if degreeOf(nw, v) != 0 {
		t.Fatalf("dead peer regained %d edges while offline", degreeOf(nw, v))
	}
	var counter int64 = -1
	for _, sm := range reg.Snapshot().Metrics {
		if sm.Name == "gnet_hostcache_rejected_total" {
			counter = sm.Value
		}
	}
	if counter != int64(st.HostRejected) {
		t.Fatalf("gnet_hostcache_rejected_total = %d, RepairStats.HostRejected = %d", counter, st.HostRejected)
	}
}

// TestMaintenanceCostPins pins the keepalive exactly: one Tick with repair
// on over a fixed, settled overlay (everyone online, no loss, a registry
// attached) sends and answers a known number of pings for a known number of
// allocations and host-cache adds, the first round on a flat overlay makes a
// known number of adds, and one X-Try exchange hands over a known number of
// hints for a known number of allocations. The adds pins fail a Pong value
// path that drops or repeats an address. Lowering an allocation pin is
// free; raising one needs a CHANGES.md line that names the cause. The
// message, add and hint counts are behaviour and do not move.
func TestMaintenanceCostPins(t *testing.T) {
	cfg := DefaultRepairConfig(7)
	reg := obs.NewRegistry()
	nw, m := maintNetwork(t, DefaultConfig(7), cfg, func(nw *Network) { nw.Instrument(reg, nil) })
	hostAdds := reg.Counter("gnet_hostcache_adds_total")
	now := int64(0)
	var pings, pongs int
	adds := make([]int64, 0, 2) // host-cache adds per tick
	tick := func() {
		before, addsBefore := m.Stats(), hostAdds.Value()
		now += cfg.PingInterval
		m.Tick(now)
		after := m.Stats()
		pings, pongs = after.PingsSent-before.PingsSent, after.PongsReceived-before.PongsReceived
		adds = append(adds, hostAdds.Value()-addsBefore)
	}
	// AllocsPerRun warms up with one tick: the first round's Pongs fill
	// the caches the X-Try seeding left, the second finds them learned.
	if allocs := testing.AllocsPerRun(1, tick); allocs != 120 || pings != 816 || pongs != 816 || !slices.Equal(adds, []int64{55, 0}) {
		t.Errorf("keepalive rounds: %v allocs, %d pings sent, %d pongs received, %v host-cache adds; pinned 120, 816, 816, [55 0]",
			allocs, pings, pongs, adds)
	}

	// A flat overlay keeps every address its Pongs carry, where a two-tier
	// one drops the leaves', so its first round pins every Pong's address.
	flat := DefaultConfig(7)
	flat.UltrapeerFrac = 0
	flatReg := obs.NewRegistry()
	_, fm := maintNetwork(t, flat, cfg, func(nw *Network) { nw.Instrument(flatReg, nil) })
	flatAdds := flatReg.Counter("gnet_hostcache_adds_total")
	seeded := flatAdds.Value()
	fm.Tick(cfg.PingInterval)
	if got := flatAdds.Value() - seeded; got != 8555 {
		t.Errorf("flat keepalive round: %d host-cache adds; pinned 8555", got)
	}

	from := nw.Peers[firstUltra(nw)]
	var hints int
	exchange := func() { hints = len(m.receiveTries(from)) }
	if allocs := testing.AllocsPerRun(20, exchange); allocs != 0 || hints != 12 {
		t.Errorf("one X-Try exchange: %v allocs, %d hints; pinned 0, 12", allocs, hints)
	}
}

// wirePongAddrs is the encoded keepalive exchange that receivePongs hands
// over as values, kept as its reference: u's Ping is encoded and decoded at
// v, which answers with a Pong for itself and cached Pongs for the first ten
// of its other neighbors in neighbor order; each Pong is encoded, decoded at
// u, and the address it carries collected.
func wirePongAddrs(t *testing.T, nw *Network, u, v int) []Addr {
	t.Helper()
	pingRaw, err := gmsg.Encode(&gmsg.Message{
		Header: gmsg.Header{GUID: gmsg.GUIDFromUint64s(uint64(u), uint64(v)), Type: gmsg.TypePing, TTL: 1},
	})
	if err != nil {
		t.Fatalf("ping encode: %v", err)
	}
	ping, _, err := gmsg.Decode(pingRaw)
	if err != nil {
		t.Fatalf("ping decode: %v", err)
	}
	var addrs []Addr
	answer := func(q *Peer, hops byte) {
		raw, err := gmsg.Encode(&gmsg.Message{
			Header: gmsg.Header{GUID: ping.Header.GUID, Type: gmsg.TypePong, TTL: ping.Header.Hops + 1, Hops: hops},
			Pong:   &gmsg.Pong{Port: q.Addr.Port, IP: q.Addr.IP, FilesCount: uint32(len(q.Library))},
		})
		if err != nil {
			t.Fatalf("pong encode: %v", err)
		}
		pong, _, err := gmsg.Decode(raw)
		if err != nil {
			t.Fatalf("pong decode: %v", err)
		}
		addrs = append(addrs, Addr{IP: pong.Pong.IP, Port: pong.Pong.Port})
	}
	answer(nw.Peers[v], 0)
	sent := 0
	for _, nb := range nw.Peers[v].Neighbors {
		if nb == u {
			continue
		}
		answer(nw.Peers[nb], 1)
		if sent++; sent >= 10 {
			break
		}
	}
	return addrs
}

// wireTries is the X-Try-Ultrapeers exchange that receiveTries hands over as
// values, kept as its reference: from's hints (its ultrapeer neighbors, or
// every neighbor on a flat overlay) are formatted into the header value and
// parsed back on receipt.
func wireTries(nw *Network, from *Peer) []Addr {
	var hints []Addr
	for _, nb := range from.Neighbors {
		if q := nw.Peers[nb]; q.Ultrapeer || nw.Config.UltrapeerFrac == 0 {
			hints = append(hints, q.Addr)
		}
	}
	return ParseTryUltrapeers(FormatTryUltrapeers(hints))
}

// peerAddrs returns the addresses of the peers ids names, in order,
// failing t unless each resolves back to its peer through PeerByAddr.
func peerAddrs(t *testing.T, nw *Network, ids []int32) []Addr {
	t.Helper()
	out := make([]Addr, len(ids))
	for i, id := range ids {
		a := nw.Peers[id].Addr
		if p := nw.PeerByAddr(a); p == nil || p.ID != int(id) {
			t.Fatalf("address %v of peer %d resolves to %v", a, id, p)
		}
		out[i] = a
	}
	return out
}

// TestKeepaliveMatchesWireReference holds the keepalive's value path to the
// encoded one: after ticks with churn, repair, 5% message loss and a
// shedding capacity plane have left neighbor lists ragged, the addresses of
// the peers every online edge's Pongs carry equal wirePongAddrs, in order,
// every peer's X-Try hints equal wireTries, and each of those addresses
// resolves back to its peer through PeerByAddr, on flat and two-tier
// overlays.
func TestKeepaliveMatchesWireReference(t *testing.T) {
	flat := DefaultConfig(23)
	flat.UltrapeerFrac = 0
	// excluded counts answers where u sits among v's first eleven
	// neighbors (so skipping it moves the list); capped counts answers the
	// ten-Pong bound cut short.
	var excluded, capped int
	for _, tc := range []struct {
		name string
		ncfg Config
	}{{"two-tier", DefaultConfig(23)}, {"flat", flat}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultRepairConfig(23)
			ccfg := capacity.DefaultConfig(23)
			ccfg.QueueDepth, ccfg.Policy = 6, capacity.RED
			var plane *capacity.Plane
			nw, m := maintNetwork(t, tc.ncfg, cfg, func(nw *Network) {
				nw.SetFaults(faults.New(faults.Config{Seed: 23, MessageLoss: 0.05}))
				var err error
				if plane, err = capacity.New(ccfg, len(nw.Peers)); err != nil {
					t.Fatalf("capacity.New: %v", err)
				}
				nw.SetCapacity(plane)
			})
			n := len(nw.Peers)
			for id := 0; id < n; id += 9 {
				if err := m.PeerDown(id, id%2 == 0); err != nil {
					t.Fatalf("PeerDown: %v", err)
				}
			}
			for round := int64(1); round <= 4; round++ {
				now := round * cfg.PingInterval
				plane.Advance(now)
				if round == 3 {
					for id := 0; id < n; id += 18 {
						if err := m.PeerUp(id, now); err != nil {
							t.Fatalf("PeerUp: %v", err)
						}
					}
				}
				m.Tick(now)
				plane.Commit(now)
			}
			st := m.Stats()
			if st.FailuresDetected == 0 || st.RepairSuccesses == 0 || st.PingsLost == 0 || plane.Stats().Shed == 0 {
				t.Fatalf("setup left the overlay settled: %+v, capacity %+v", st, plane.Stats())
			}

			var buf [1 + maxCachedPongs]int32
			for u, p := range nw.Peers {
				if !m.online[u] {
					continue
				}
				for _, v := range p.Neighbors {
					if !m.online[v] {
						continue
					}
					got, want := peerAddrs(t, nw, nw.pongPeers(buf[:0], u, v)), wirePongAddrs(t, nw, u, v)
					if !slices.Equal(got, want) {
						t.Fatalf("Pongs %d -> %d: value path %v, wire reference %v", v, u, got, want)
					}
					if i := slices.Index(nw.Peers[v].Neighbors, u); i >= 0 && i <= maxCachedPongs {
						excluded++
					}
					if len(want) == 1+maxCachedPongs {
						capped++
					}
				}
			}
			for _, p := range nw.Peers {
				if got, want := peerAddrs(t, nw, m.receiveTries(p)), wireTries(nw, p); !slices.Equal(got, want) {
					t.Fatalf("X-Try hints of %d: value path %v, wire reference %v", p.ID, got, want)
				}
			}
		})
	}
	if excluded == 0 || capped == 0 {
		t.Fatalf("no answer exercised the edge cases: %d with u among the first eleven, %d capped", excluded, capped)
	}
}
