package gnet

import (
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// HostCache is a bounded, deduplicated FIFO of candidate peer addresses —
// the per-servent pool a repairing peer draws replacement neighbors from.
// Deployed servents fill theirs from Pong descriptors and the handshake's
// X-Try-Ultrapeers hints; the overlay Maintainer does the same here.
//
// The cache is deterministic: insertion order is preserved, eviction is
// oldest-first, and Pick draws uniformly through the caller's rng stream.
// It is not safe for concurrent use; each peer's cache belongs to the
// single-goroutine maintenance loop.
type HostCache struct {
	capacity int
	addrs    []Addr
	index    map[Addr]struct{}

	// adds/evicts publish cache pressure to an attached observability
	// registry; nil (the default) records nothing (see Instrument).
	adds   *obs.Counter
	evicts *obs.Counter
}

// NewHostCache returns an empty cache bounded to capacity entries
// (capacity <= 0 falls back to DefaultHostCacheSize).
func NewHostCache(capacity int) *HostCache {
	if capacity <= 0 {
		capacity = DefaultHostCacheSize
	}
	return &HostCache{capacity: capacity, index: make(map[Addr]struct{}, capacity)}
}

// DefaultHostCacheSize bounds a peer's candidate pool, matching the small
// host caches deployed servents keep (tens of entries, not thousands).
const DefaultHostCacheSize = 32

// Len returns the number of cached addresses.
func (hc *HostCache) Len() int { return len(hc.addrs) }

// Instrument attaches add/eviction counters (either may be nil).
func (hc *HostCache) Instrument(adds, evicts *obs.Counter) {
	hc.adds, hc.evicts = adds, evicts
}

// Add inserts a, evicting the oldest entry when the cache is full. It
// reports whether the address was new.
func (hc *HostCache) Add(a Addr) bool {
	if _, dup := hc.index[a]; dup {
		return false
	}
	if len(hc.addrs) >= hc.capacity {
		oldest := hc.addrs[0]
		hc.addrs = hc.addrs[1:]
		delete(hc.index, oldest)
		hc.evicts.Inc()
	}
	hc.adds.Inc()
	hc.addrs = append(hc.addrs, a)
	hc.index[a] = struct{}{}
	return true
}

// Remove drops a from the cache (e.g. after repeated failed connection
// attempts), reporting whether it was present.
func (hc *HostCache) Remove(a Addr) bool {
	if _, ok := hc.index[a]; !ok {
		return false
	}
	delete(hc.index, a)
	for i, x := range hc.addrs {
		if x == a {
			hc.addrs = append(hc.addrs[:i], hc.addrs[i+1:]...)
			break
		}
	}
	return true
}

// Pick returns a uniformly drawn cached address for which keep returns
// true (nil keep accepts everything). The draw consumes exactly one value
// from r when any candidate qualifies, so schedules stay reproducible.
func (hc *HostCache) Pick(r *rng.Source, keep func(Addr) bool) (Addr, bool) {
	if len(hc.addrs) == 0 {
		return Addr{}, false
	}
	if keep == nil {
		return hc.addrs[r.Intn(len(hc.addrs))], true
	}
	// Filter into a scratch view first so rejected candidates don't skew
	// (or extend) the stream consumption.
	candidates := make([]Addr, 0, len(hc.addrs))
	for _, a := range hc.addrs {
		if keep(a) {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return Addr{}, false
	}
	return candidates[r.Intn(len(candidates))], true
}
