package overlay

import (
	"math"
	"slices"
	"testing"

	"querycentric/internal/rng"
)

// refFlood is the obviously-right reference for Frontier: a map for the
// processed set, fresh slices per hop, no epochs, no buffer reuse. It
// returns the rings in order and the transmitted-copy count.
func refFlood(g *Graph, origin, ttl int, alive []bool) (rings [][]int32, sent int) {
	if origin < 0 || origin >= g.N() || ttl < 1 {
		return nil, 0
	}
	live := func(v int32) bool { return alive == nil || alive[v] }
	processed := map[int32]bool{int32(origin): true}
	var inbox []int32 // copies in flight, in transmission order
	for _, nb := range g.Neighbors(origin) {
		if live(nb) {
			inbox = append(inbox, nb)
			sent++
		}
	}
	for hop := 1; hop <= ttl && len(inbox) > 0; hop++ {
		var ring, outbox []int32
		for _, v := range inbox {
			if processed[v] {
				continue
			}
			processed[v] = true
			ring = append(ring, v)
			if hop == ttl || !g.Ultra(int(v)) {
				continue
			}
			for _, nb := range g.Neighbors(int(v)) {
				if live(nb) && !processed[nb] {
					outbox = append(outbox, nb)
					sent++
				}
			}
		}
		if len(ring) > 0 {
			rings = append(rings, ring)
		}
		inbox = outbox
	}
	return rings, sent
}

// checkAgainstReference floods through f and asserts identical ring
// membership (hence per-vertex hop), processed count and transmitted-copy
// count, then the same through the Coverage wrapper.
func checkAgainstReference(t *testing.T, f *Frontier, g *Graph, origin, ttl int, alive []bool) {
	t.Helper()
	want, wantSent := refFlood(g, origin, ttl, alive)
	f.Start(origin, ttl, alive)
	hop, processed := 0, 0
	for ring := f.Next(); len(ring) > 0; ring = f.Next() {
		hop++
		if f.Hop() != hop {
			t.Fatalf("origin %d ttl %d: Hop()=%d at ring %d", origin, ttl, f.Hop(), hop)
		}
		if hop > len(want) || !slices.Equal(ring, want[hop-1]) {
			t.Fatalf("origin %d ttl %d: ring %d = %v, reference rings %v", origin, ttl, hop, ring, want)
		}
		processed += len(ring)
	}
	if hop != len(want) {
		t.Fatalf("origin %d ttl %d: %d rings, reference has %d", origin, ttl, hop, len(want))
	}
	if f.Sent() != wantSent {
		t.Fatalf("origin %d ttl %d: Sent()=%d, reference %d", origin, ttl, f.Sent(), wantSent)
	}
	if alive == nil {
		if got := len(NewCoverage(g).Reached(origin, ttl)); got != processed {
			t.Fatalf("origin %d ttl %d: Coverage reached %d, rings hold %d", origin, ttl, got, processed)
		}
	}
}

// deadMask marks roughly frac of the vertices dead, never the origin.
func deadMask(n, origin int, frac float64, seed uint64) []bool {
	r := rng.New(seed)
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = v == origin || !r.Bool(frac)
	}
	return alive
}

func testGraph(t testing.TB, n int, twoTier bool, seed uint64) *Graph {
	t.Helper()
	var g *Graph
	var err error
	if twoTier {
		g, err = NewGnutella(n, GnutellaConfig{UltraFrac: 0.2, UltraDeg: 4, LeafUltras: 2}, seed)
	} else {
		g, err = NewErdosRenyi(n, 4, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFrontierMatchesReference(t *testing.T) {
	for _, twoTier := range []bool{false, true} {
		for seed := uint64(1); seed <= 4; seed++ {
			g := testGraph(t, 150+int(seed)*37, twoTier, seed)
			f := NewFrontier(g) // one kernel across every flood: reuse is under test too
			for trial := 0; trial < 12; trial++ {
				origin := (trial*29 + int(seed)) % g.N()
				for ttl := 1; ttl <= 6; ttl++ {
					checkAgainstReference(t, f, g, origin, ttl, nil)
					checkAgainstReference(t, f, g, origin, ttl, deadMask(g.N(), origin, 0.3, seed*100+uint64(trial)))
				}
			}
		}
	}
}

func TestFrontierDegenerateInputs(t *testing.T) {
	g := testGraph(t, 50, false, 3)
	f := NewFrontier(g)
	for _, c := range [][2]int{{-1, 3}, {50, 3}, {0, 0}, {0, -2}} {
		f.Start(c[0], c[1], nil)
		if ring := f.Next(); len(ring) != 0 || f.Sent() != 0 {
			t.Errorf("Start(%d, %d): ring %v sent %d, want nothing", c[0], c[1], ring, f.Sent())
		}
	}
}

// TestFrontierEpochWrap starts a kernel two floods below the int32 wrap
// and checks the next three floods — before, across and after the clearing
// reset — against the reference. Marks stamped before the wrap must not
// alias the restarted epochs.
func TestFrontierEpochWrap(t *testing.T) {
	g := testGraph(t, 200, true, 9)
	f := NewFrontier(g)
	checkAgainstReference(t, f, g, 0, 5, nil) // leave real stamps in the array first
	f.seen.epoch = math.MaxInt32 - 3
	for i, origin := range []int{3, 77, 3} {
		checkAgainstReference(t, f, g, origin, 5, nil)
		if i == 2 && f.seen.epoch != 1 {
			t.Fatalf("epoch after the wrapping reset = %d, want 1", f.seen.epoch)
		}
	}
	s := NewVertexSet(4)
	s.Add(2)
	s.epoch = math.MaxInt32 - 1
	s.mark[1] = 1 // a stale stamp that equals the post-wrap epoch
	s.Reset()
	if s.Has(1) || s.Has(2) || !s.Add(1) {
		t.Error("VertexSet kept members across the wrapping reset")
	}
}

func TestFrontierAllocatesNothingWhenWarm(t *testing.T) {
	g := testGraph(t, 2000, true, 5)
	f := NewFrontier(g)
	alive := deadMask(g.N(), 0, 0.1, 1)
	flood := func(origin int, mask []bool) {
		f.Start(origin, 6, mask)
		for ring := f.Next(); len(ring) > 0; ring = f.Next() {
		}
	}
	for origin := 0; origin < g.N(); origin += 7 { // warm the buffers
		flood(origin, nil)
	}
	origin := 0
	if n := testing.AllocsPerRun(200, func() {
		flood(origin%g.N(), nil)
		flood(origin%g.N(), alive)
		origin += 13
	}); n != 0 {
		t.Errorf("warmed Frontier allocates %v objects per flood pair, want 0", n)
	}
}

// FuzzFrontierVsReference drives the differential check from fuzzed
// (graph, origin, TTL, mask) tuples.
func FuzzFrontierVsReference(f *testing.F) {
	f.Add(uint64(1), uint16(60), false, uint16(0), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(300), true, uint16(17), uint8(5), uint8(30))
	f.Add(uint64(3), uint16(0), true, uint16(1), uint8(1), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, twoTier bool, origin uint16, ttl, deadPct uint8) {
		size := 8 + int(n)%600 // NewErdosRenyi needs room for its chords
		g := testGraph(t, size, twoTier, seed)
		var alive []bool
		o := int(origin) % size
		if deadPct%101 > 0 {
			alive = deadMask(size, o, float64(deadPct%101)/100, seed)
		}
		fr := NewFrontier(g)
		checkAgainstReference(t, fr, g, o, 1+int(ttl)%8, alive)
		checkAgainstReference(t, fr, g, (o+1)%size, 1+int(ttl)%8, alive) // reuse; origin may now be dead-masked
	})
}
