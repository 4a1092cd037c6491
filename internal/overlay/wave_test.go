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

// checkWave runs one pass through w and compares its found mask with the
// per-origin Frontier reference, then checks that the pass left every word
// clear for the next one.
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

func TestWaveMatchesFrontier(t *testing.T) {
	for _, twoTier := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			g := testGraph(t, 120+int(seed)*61, twoTier, seed)
			w, f := NewWave(g), NewFrontier(g) // one kernel across every pass: reuse is under test too
			r := rng.New(seed)
			for _, k := range []int{0, 1, 2, 63, 64} {
				for ttl := 0; ttl <= 6; ttl++ {
					origins, targets := randomWave(r, g.N(), k, 3)
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

// FuzzWaveVsFrontier drives the differential check from fuzzed (graph,
// origin count, TTL, target density) tuples; origins and targets come from
// a stream seeded by the input.
func FuzzWaveVsFrontier(f *testing.F) {
	f.Add(uint64(1), uint16(60), false, uint8(1), uint8(3), uint8(2))
	f.Add(uint64(2), uint16(300), true, uint8(63), uint8(5), uint8(1))
	f.Add(uint64(3), uint16(500), true, uint8(64), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, twoTier bool, k, ttl, maxTargets uint8) {
		size := 8 + int(n)%600 // NewErdosRenyi needs room for its chords
		g := testGraph(t, size, twoTier, seed)
		w, fr := NewWave(g), NewFrontier(g)
		r := rng.New(seed)
		origins, targets := randomWave(r, size, 1+int(k)%WaveWidth, int(maxTargets)%6)
		checkWave(t, w, fr, origins, targets, 1+int(ttl)%7)
		origins, targets = randomWave(r, size, 1+int(k)%WaveWidth, int(maxTargets)%6)
		checkWave(t, w, fr, origins, targets, 1+int(ttl)%7) // reuse after a pass
	})
}
