package overlay

import (
	"testing"

	"querycentric/internal/rng"
)

// frontierFound is Wave's reference: flood i is found when origins[i] or a
// vertex on one of its Frontier rings is in targets[i].
func frontierFound(f *Frontier, origins []int32, targets [][]int32, ttl int) uint64 {
	var found uint64
	for i, o := range origins {
		want := map[int32]bool{}
		for _, v := range targets[i] {
			want[v] = true
		}
		hit := want[o]
		f.Start(int(o), ttl, nil)
		for ring := f.Next(); len(ring) > 0 && !hit; ring = f.Next() {
			for _, v := range ring {
				hit = hit || want[v]
			}
		}
		if hit {
			found |= 1 << uint(i)
		}
	}
	return found
}

// randomWave draws k origins (duplicates allowed) and up to maxTargets
// targets per flood from r.
func randomWave(r *rng.Source, n, k, maxTargets int) ([]int32, [][]int32) {
	origins := make([]int32, k)
	targets := make([][]int32, k)
	for i := range origins {
		origins[i] = int32(r.Intn(n))
		for t := r.Intn(maxTargets + 1); t > 0; t-- {
			targets[i] = append(targets[i], int32(r.Intn(n)))
		}
	}
	return origins, targets
}

// localWave draws k origins and gives each flood targets along a random
// walk of two steps from its origin: the origin itself, a neighbour and a
// neighbour's neighbour, each kept at even odds. Targets of either role
// then sit at TTL 0, 1 and 2 from origins of either role, leaf origins next
// to leaf targets among them.
func localWave(r *rng.Source, g *Graph, k int) ([]int32, [][]int32) {
	origins := make([]int32, k)
	targets := make([][]int32, k)
	for i := range origins {
		v := int32(r.Intn(g.N()))
		origins[i] = v
		for step := 0; step <= 2; step++ {
			if r.Bool(0.5) {
				targets[i] = append(targets[i], v)
			}
			nb := g.adj[v]
			v = nb[r.Intn(len(nb))]
		}
	}
	return origins, targets
}

// markedGraph is a two-tier shape NewGnutella never builds: an
// Erdős–Rényi graph with about a third of its vertices marked relays, so
// leaves have leaf neighbours, some leaves have no relay neighbour at all,
// and relays have few relaying neighbours.
func markedGraph(t testing.TB, n int, seed uint64) *Graph {
	t.Helper()
	g := testGraph(t, n, false, seed)
	r := rng.NewNamed(seed, "overlay/marked")
	g.ultra = make([]bool, n)
	for v := range g.ultra {
		g.ultra[v] = r.Bool(1.0 / 3)
	}
	return g
}

// waveShape is the graph a Wave test floods: flat, NewGnutella's two
// tiers, or markedGraph's.
func waveShape(t testing.TB, shape, n int, seed uint64) *Graph {
	switch shape % 3 {
	case 0:
		return testGraph(t, n, false, seed)
	case 1:
		return testGraph(t, n, true, seed)
	}
	return markedGraph(t, n, seed)
}

// checkWave runs one pass through w and compares its found mask with the
// per-origin Frontier reference, then checks that the pass left every word
// (target, near, frontier and seen) clear for the next one.
func checkWave(t *testing.T, w *Wave, f *Frontier, origins []int32, targets [][]int32, ttl int) {
	t.Helper()
	for i, ts := range targets {
		for _, v := range ts {
			w.Target(v, i)
		}
	}
	got := w.Run(origins, ttl)
	if want := frontierFound(f, origins, targets, ttl); got != want {
		t.Fatalf("%d origins, ttl %d: found %064b, Frontier reference %064b", len(origins), ttl, got, want)
	}
	for v := range w.seen {
		if w.seen[v] != 0 || w.cell[v] != (waveCell{}) {
			t.Fatalf("%d origins, ttl %d: vertex %d left seen %x, cell %+v", len(origins), ttl, v, w.seen[v], w.cell[v])
		}
	}
}

// markedCases counts what markedGraph exists for: leaf–leaf arcs and
// leaves with no relay neighbour.
func markedCases(g *Graph) (leafLeaf, lonely int) {
	for v, a := range g.adj {
		if g.ultra[v] {
			continue
		}
		relays := 0
		for _, u := range a {
			if g.ultra[u] {
				relays++
			} else {
				leafLeaf++
			}
		}
		if relays == 0 {
			lonely++
		}
	}
	return leafLeaf, lonely
}

func TestWaveMatchesFrontier(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for seed := uint64(1); seed <= 3; seed++ {
			g := waveShape(t, shape, 120+int(seed)*61, seed)
			if shape == 2 { // the differential check must not quietly lose its cases
				if leafLeaf, lonely := markedCases(g); leafLeaf == 0 || lonely == 0 {
					t.Fatalf("seed %d: marked graph has %d leaf–leaf arcs and %d leaves with no relay neighbour; want both", seed, leafLeaf, lonely)
				}
			}
			w, f := NewWave(g), NewFrontier(g) // one kernel across every pass: reuse is under test too
			r := rng.New(seed)
			for _, k := range []int{0, 1, 2, 63, 64} {
				for ttl := 0; ttl <= 6; ttl++ {
					origins, targets := randomWave(r, g.N(), k, 3)
					checkWave(t, w, f, origins, targets, ttl)
					origins, targets = localWave(r, g, k)
					checkWave(t, w, f, origins, targets, ttl)
				}
			}
		}
	}
}

func TestWaveAllocatesNothingWhenWarm(t *testing.T) {
	g := testGraph(t, 2000, true, 5)
	w := NewWave(g)
	r := rng.New(7)
	origins, targets := randomWave(r, g.N(), WaveWidth, 4)
	pass := func(ttl int) {
		for i, ts := range targets {
			for _, v := range ts {
				w.Target(v, i)
			}
		}
		w.Run(origins, ttl)
	}
	pass(7) // warm the buffers at the widest reach
	if n := testing.AllocsPerRun(100, func() { pass(3); pass(7) }); n != 0 {
		t.Errorf("warmed Wave allocates %v objects per pass pair, want 0", n)
	}
}

// TestNewWaveAllocations pins what building a kernel allocates: the Wave,
// its seen and cell arrays, and on a two-tier graph the core's offsets and
// arcs, each sized before it is filled — the same count at any graph size.
// Fifty runs, so that the runtime's own one-off allocations (the first
// collection starting its mark workers) cannot move the average.
func TestNewWaveAllocations(t *testing.T) {
	for _, tc := range []struct {
		shape int
		want  float64
	}{{0, 3}, {1, 5}, {2, 5}} {
		for _, n := range []int{300, 3000} {
			g := waveShape(t, tc.shape, n, 1)
			if got := testing.AllocsPerRun(50, func() { NewWave(g) }); got != tc.want {
				t.Errorf("shape %d, %d vertices: NewWave allocates %v objects, want %v", tc.shape, n, got, tc.want)
			}
		}
	}
}

// FuzzWaveVsFrontier drives the differential check from fuzzed (graph
// shape, size, origin count, TTL, target density) tuples; origins and
// targets come from a stream seeded by the input, once drawn anywhere in
// the graph and once along short walks from the origins.
func FuzzWaveVsFrontier(f *testing.F) {
	f.Add(uint64(1), uint16(60), uint8(0), uint8(1), uint8(3), uint8(2))
	f.Add(uint64(2), uint16(300), uint8(1), uint8(63), uint8(5), uint8(1))
	f.Add(uint64(3), uint16(500), uint8(1), uint8(64), uint8(7), uint8(0))
	f.Add(uint64(4), uint16(200), uint8(2), uint8(40), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, shape, k, ttl, maxTargets uint8) {
		size := 8 + int(n)%600 // NewErdosRenyi needs room for its chords
		g := waveShape(t, int(shape), size, seed)
		w, fr := NewWave(g), NewFrontier(g)
		r := rng.New(seed)
		origins, targets := randomWave(r, size, 1+int(k)%WaveWidth, int(maxTargets)%6)
		checkWave(t, w, fr, origins, targets, 1+int(ttl)%7)
		origins, targets = localWave(r, g, 1+int(k)%WaveWidth)
		checkWave(t, w, fr, origins, targets, int(ttl)%7) // reuse after a pass, TTL 0 included
	})
}
