package gnet

import (
	"slices"
	"testing"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// hcOrder returns the cache's entries oldest first.
func hcOrder(hc *HostCache) []int32 {
	a, b := hc.entries()
	return append(append([]int32{}, a...), b...)
}

func TestHostCacheAddDedupEvict(t *testing.T) {
	hc := NewHostCache(3)
	for i := 0; i < 3; i++ {
		if !hc.Add(int32(i)) {
			t.Fatalf("Add(%d) reported duplicate on fresh cache", i)
		}
	}
	if hc.Add(int32(1)) {
		t.Fatal("Add reported a duplicate address as new")
	}
	if hc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", hc.Len())
	}
	// A fourth insert evicts the oldest entry (FIFO).
	hc.Add(int32(3))
	if want := []int32{1, 2, 3}; !slices.Equal(hcOrder(hc), want) {
		t.Fatalf("cache after eviction = %v, want %v", hcOrder(hc), want)
	}
}

func TestHostCacheRemove(t *testing.T) {
	hc := NewHostCache(4)
	for i := 0; i < 3; i++ {
		hc.Add(int32(i))
	}
	if !hc.Remove(int32(1)) {
		t.Fatal("Remove missed a present address")
	}
	if hc.Remove(int32(1)) {
		t.Fatal("Remove reported an absent address as present")
	}
	if want := []int32{0, 2}; !slices.Equal(hcOrder(hc), want) {
		t.Fatalf("cache after Remove = %v, want %v", hcOrder(hc), want)
	}
}

func TestHostCachePick(t *testing.T) {
	hc := NewHostCache(8)
	if _, ok := hc.Pick(rng.New(1), nil); ok {
		t.Fatal("Pick on empty cache returned a value")
	}
	for i := 0; i < 5; i++ {
		hc.Add(int32(i))
	}
	// The filtered draw consumes exactly one rng value when a candidate
	// qualifies, regardless of how many candidates the filter rejects.
	only2 := func(id int32) bool { return id == 2 }
	r1, r2 := rng.New(7), rng.New(7)
	a, ok := hc.Pick(r1, only2)
	if !ok || a != 2 {
		t.Fatalf("filtered Pick = %v, %v; want 2, true", a, ok)
	}
	r2.Intn(1)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("filtered Pick consumed a different stream length than one draw")
	}
	if _, ok := hc.Pick(rng.New(7), func(int32) bool { return false }); ok {
		t.Fatal("Pick with all-rejecting filter returned a value")
	}
	// Same seed, same draw.
	b1, _ := hc.Pick(rng.New(42), nil)
	b2, _ := hc.Pick(rng.New(42), nil)
	if b1 != b2 {
		t.Fatalf("same-seed Pick disagreed: %v vs %v", b1, b2)
	}
}

// mapHostCache is the host cache before it dropped its index, kept as the
// model: a map decides duplicates and removals, a slice keeps FIFO order.
type mapHostCache struct {
	capacity     int
	ids          []int32
	index        map[int32]struct{}
	adds, evicts int
}

func newMapHostCache(capacity int) *mapHostCache {
	return &mapHostCache{capacity: capacity, index: make(map[int32]struct{}, capacity)}
}

func (hc *mapHostCache) Add(id int32) bool {
	if _, dup := hc.index[id]; dup {
		return false
	}
	if len(hc.ids) >= hc.capacity {
		oldest := hc.ids[0]
		hc.ids = hc.ids[1:]
		delete(hc.index, oldest)
		hc.evicts++
	}
	hc.adds++
	hc.ids = append(hc.ids, id)
	hc.index[id] = struct{}{}
	return true
}

func (hc *mapHostCache) Remove(id int32) bool {
	if _, ok := hc.index[id]; !ok {
		return false
	}
	delete(hc.index, id)
	for i, x := range hc.ids {
		if x == id {
			hc.ids = append(hc.ids[:i], hc.ids[i+1:]...)
			break
		}
	}
	return true
}

func (hc *mapHostCache) Pick(r *rng.Source, keep func(int32) bool) (int32, bool) {
	if len(hc.ids) == 0 {
		return 0, false
	}
	if keep == nil {
		return hc.ids[r.Intn(len(hc.ids))], true
	}
	candidates := make([]int32, 0, len(hc.ids))
	for _, id := range hc.ids {
		if keep(id) {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[r.Intn(len(candidates))], true
}

// TestHostCacheMatchesMapModel runs random Add/Remove/Pick sequences against
// the cache and the map-indexed model, at every capacity from 1 to 40 (past
// the stack scratch Pick uses up to DefaultHostCacheSize), over an ID
// pool larger than the capacity so duplicates and evictions both occur.
// Every return value, the FIFO order after every operation, every Pick from
// equal streams — including which IDs its filter is shown, in order —
// and the adds/evicts counters must agree, and every free ring slot must
// hold the -1 the duplicate scan relies on.
func TestHostCacheMatchesMapModel(t *testing.T) {
	for capacity := 1; capacity <= 40; capacity++ {
		reg := obs.NewRegistry()
		adds, evicts := reg.Counter("adds"), reg.Counter("evicts")
		hc, model := NewHostCache(capacity), newMapHostCache(capacity)
		hc.Instrument(adds, evicts)
		ops := rng.New(uint64(capacity))
		pool := capacity + capacity/2 + 2
		for step := 0; step < 3000; step++ {
			a := int32(ops.Intn(pool))
			switch op := ops.Intn(10); {
			case op < 6:
				if got, want := hc.Add(a), model.Add(a); got != want {
					t.Fatalf("cap %d step %d: Add(%v) = %v, model %v", capacity, step, a, got, want)
				}
			case op < 8:
				if got, want := hc.Remove(a), model.Remove(a); got != want {
					t.Fatalf("cap %d step %d: Remove(%v) = %v, model %v", capacity, step, a, got, want)
				}
			default:
				seed, mod := ops.Uint64(), 1+ops.Intn(4)
				var keep, modelKeep func(int32) bool
				var shown, modelShown []int32
				if mod > 1 {
					keep = func(id int32) bool { shown = append(shown, id); return int(id)%mod == 0 }
					modelKeep = func(id int32) bool { modelShown = append(modelShown, id); return int(id)%mod == 0 }
				}
				r, mr := rng.New(seed), rng.New(seed)
				got, gok := hc.Pick(r, keep)
				want, wok := model.Pick(mr, modelKeep)
				if got != want || gok != wok || !slices.Equal(shown, modelShown) || r.Uint64() != mr.Uint64() {
					t.Fatalf("cap %d step %d: Pick = %v, %v (filter shown %v); model %v, %v (shown %v)",
						capacity, step, got, gok, shown, want, wok, modelShown)
				}
			}
			if !slices.Equal(hcOrder(hc), model.ids) {
				t.Fatalf("cap %d step %d: order %v, model %v", capacity, step, hcOrder(hc), model.ids)
			}
			free := 0
			for _, x := range hc.ring {
				if x == -1 {
					free++
				}
			}
			if free != len(hc.ring)-hc.Len() {
				t.Fatalf("cap %d step %d: ring %v holds %d free slots, want %d", capacity, step, hc.ring, free, len(hc.ring)-hc.Len())
			}
		}
		if adds.Value() != int64(model.adds) || evicts.Value() != int64(model.evicts) {
			t.Fatalf("cap %d: adds/evicts %d/%d, model %d/%d", capacity, adds.Value(), evicts.Value(), model.adds, model.evicts)
		}
		if model.evicts == 0 {
			t.Fatalf("cap %d: the sequence never evicted", capacity)
		}
	}
}

// TestHostCacheFullAllocPins: on a full cache, Add (evicting the oldest
// entry) and Pick (filtered or not) allocate nothing — the maintenance
// loop calls them for every Pong and every repair. Lowering a pin is free;
// raising one needs a CHANGES.md line that names the cause.
func TestHostCacheFullAllocPins(t *testing.T) {
	hc := NewHostCache(DefaultHostCacheSize)
	for i := 0; i < DefaultHostCacheSize; i++ {
		hc.Add(int32(i))
	}
	r := rng.New(1)
	next := DefaultHostCacheSize
	keep := func(id int32) bool { return id%2 == 0 }
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Add", func() { hc.Add(int32(next)); next++ }},
		{"Pick", func() { hc.Pick(r, nil) }},
		{"Pick filtered", func() { hc.Pick(r, keep) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s on a full cache: %v allocations, pinned 0", c.name, n)
		}
	}
	if hc.Len() != DefaultHostCacheSize {
		t.Fatalf("cache holds %d, want it full at %d", hc.Len(), DefaultHostCacheSize)
	}
}
