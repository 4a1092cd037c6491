package gnet

import (
	"slices"
	"testing"

	"querycentric/internal/rng"
)

func hcAddr(i int) Addr {
	return Addr{IP: [4]byte{10, 0, byte(i >> 8), byte(i)}, Port: 6346}
}

func TestHostCacheAddDedupEvict(t *testing.T) {
	hc := NewHostCache(3)
	for i := 0; i < 3; i++ {
		if !hc.Add(hcAddr(i)) {
			t.Fatalf("Add(%d) reported duplicate on fresh cache", i)
		}
	}
	if hc.Add(hcAddr(1)) {
		t.Fatal("Add reported a duplicate address as new")
	}
	if hc.Len() != 3 {
		t.Fatalf("Len = %d, want 3", hc.Len())
	}
	// A fourth insert evicts the oldest entry (FIFO).
	hc.Add(hcAddr(3))
	if want := []Addr{hcAddr(1), hcAddr(2), hcAddr(3)}; !slices.Equal(hc.addrs, want) {
		t.Fatalf("cache after eviction = %v, want %v", hc.addrs, want)
	}
}

func TestHostCacheRemove(t *testing.T) {
	hc := NewHostCache(4)
	for i := 0; i < 3; i++ {
		hc.Add(hcAddr(i))
	}
	if !hc.Remove(hcAddr(1)) {
		t.Fatal("Remove missed a present address")
	}
	if hc.Remove(hcAddr(1)) {
		t.Fatal("Remove reported an absent address as present")
	}
	if want := []Addr{hcAddr(0), hcAddr(2)}; !slices.Equal(hc.addrs, want) {
		t.Fatalf("cache after Remove = %v, want %v", hc.addrs, want)
	}
}

func TestHostCachePick(t *testing.T) {
	hc := NewHostCache(8)
	if _, ok := hc.Pick(rng.New(1), nil); ok {
		t.Fatal("Pick on empty cache returned a value")
	}
	for i := 0; i < 5; i++ {
		hc.Add(hcAddr(i))
	}
	// The filtered draw consumes exactly one rng value when a candidate
	// qualifies, regardless of how many candidates the filter rejects.
	only2 := func(a Addr) bool { return a == hcAddr(2) }
	r1, r2 := rng.New(7), rng.New(7)
	a, ok := hc.Pick(r1, only2)
	if !ok || a != hcAddr(2) {
		t.Fatalf("filtered Pick = %v, %v; want %v, true", a, ok, hcAddr(2))
	}
	r2.Intn(1)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("filtered Pick consumed a different stream length than one draw")
	}
	if _, ok := hc.Pick(rng.New(7), func(Addr) bool { return false }); ok {
		t.Fatal("Pick with all-rejecting filter returned a value")
	}
	// Same seed, same draw.
	b1, _ := hc.Pick(rng.New(42), nil)
	b2, _ := hc.Pick(rng.New(42), nil)
	if b1 != b2 {
		t.Fatalf("same-seed Pick disagreed: %v vs %v", b1, b2)
	}
}
