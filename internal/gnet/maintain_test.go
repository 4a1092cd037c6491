package gnet

import (
	"fmt"
	"testing"

	"querycentric/internal/obs"
)

// maintTestNetwork builds a small two-tier overlay with a maintainer,
// everyone initially online.
func maintTestNetwork(t *testing.T, seed uint64, cfg RepairConfig) (*Network, *Maintainer) {
	t.Helper()
	nw, err := New(DefaultConfig(seed), 120)
	if err != nil {
		t.Fatalf("New: %v", err)
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
	// Poison u's cache with its own address; seeding and Pong learning
	// never insert it, but a hostile or buggy hint source could.
	m.caches[u].Add(nw.Peers[u].Addr)
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
