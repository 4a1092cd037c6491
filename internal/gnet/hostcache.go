package gnet

import (
	"querycentric/internal/obs"
	"querycentric/internal/rng"
)

// HostCache is a bounded, deduplicated FIFO of candidate peers — the
// per-servent pool a repairing peer draws replacement neighbors from.
// Deployed servents fill theirs from Pong descriptors and the handshake's
// X-Try-Ultrapeers hints; the overlay Maintainer does the same here.
//
// The cache is deterministic: insertion order is preserved, eviction is
// oldest-first, and Pick draws uniformly through the caller's rng stream.
// It holds peer IDs, not addresses: every address a Pong or hint carries
// is some peer's, and PeerByAddr maps addresses to IDs one to one, so an
// ID stands for its address exactly. The IDs sit in a fixed ring, oldest
// at head, so a full cache evicts by advancing head; at the tens of
// entries a servent caches, a scan of the ring decides duplicates and
// removals without a map's memory or hashing. Free slots hold -1, which
// no peer ID equals, so the duplicate scan reads the whole ring in order. It is not safe for
// concurrent use; each peer's cache belongs to the single-goroutine
// maintenance loop.
type HostCache struct {
	ring []int32 // capacity slots; entry i (0 = oldest) is ring[(head+i)%len(ring)], free slots -1
	head int
	n    int

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
	ring := make([]int32, capacity)
	for i := range ring {
		ring[i] = -1
	}
	return &HostCache{ring: ring}
}

// DefaultHostCacheSize bounds a peer's candidate pool, matching the small
// host caches deployed servents keep (tens of entries, not thousands).
const DefaultHostCacheSize = 32

// Len returns the number of cached peers.
func (hc *HostCache) Len() int { return hc.n }

// Instrument attaches add/eviction counters (either may be nil).
func (hc *HostCache) Instrument(adds, evicts *obs.Counter) {
	hc.adds, hc.evicts = adds, evicts
}

// slot returns the ring index of entry i (0 = oldest).
func (hc *HostCache) slot(i int) int {
	if j := hc.head + i; j < len(hc.ring) {
		return j
	}
	return hc.head + i - len(hc.ring)
}

// entries returns the cached IDs oldest first, as the ring's two runs:
// from head to the ring's end, then from its start.
func (hc *HostCache) entries() (a, b []int32) {
	end := hc.head + hc.n
	if end <= len(hc.ring) {
		return hc.ring[hc.head:end], nil
	}
	return hc.ring[hc.head:], hc.ring[:end-len(hc.ring)]
}

// has reports whether id is cached: a scan of the whole ring, four slots
// a step.
func (hc *HostCache) has(id int32) bool {
	r := hc.ring
	for ; len(r) >= 4; r = r[4:] {
		if r[0] == id || r[1] == id || r[2] == id || r[3] == id {
			return true
		}
	}
	for _, x := range r {
		if x == id {
			return true
		}
	}
	return false
}

// index returns the entry number of id, or -1.
func (hc *HostCache) index(id int32) int {
	a, b := hc.entries()
	for i, x := range a {
		if x == id {
			return i
		}
	}
	for i, x := range b {
		if x == id {
			return len(a) + i
		}
	}
	return -1
}

// Add inserts peer id (id >= 0), evicting the oldest entry when the cache
// is full. It reports whether the peer was new.
func (hc *HostCache) Add(id int32) bool {
	if hc.has(id) {
		return false
	}
	hc.adds.Inc()
	if hc.n == len(hc.ring) {
		// The oldest slot takes the newest entry.
		hc.ring[hc.head] = id
		hc.head = hc.slot(1)
		hc.evicts.Inc()
		return true
	}
	hc.ring[hc.slot(hc.n)] = id
	hc.n++
	return true
}

// Remove drops peer id from the cache (e.g. after repeated failed
// connection attempts), reporting whether it was present. Later entries
// move up one place, keeping their order.
func (hc *HostCache) Remove(id int32) bool {
	i := hc.index(id)
	if i < 0 {
		return false
	}
	for ; i+1 < hc.n; i++ {
		hc.ring[hc.slot(i)] = hc.ring[hc.slot(i+1)]
	}
	hc.ring[hc.slot(i)] = -1
	hc.n--
	return true
}

// Pick returns a uniformly drawn cached peer for which keep returns true
// (nil keep accepts everything), offering keep the entries oldest first.
// The draw consumes exactly one value from r when any candidate qualifies,
// so schedules stay reproducible.
func (hc *HostCache) Pick(r *rng.Source, keep func(int32) bool) (int32, bool) {
	if hc.n == 0 {
		return 0, false
	}
	if keep == nil {
		return hc.ring[hc.slot(r.Intn(hc.n))], true
	}
	// Filter into a scratch view first so rejected candidates don't skew
	// (or extend) the stream consumption. The view lives on the stack up to
	// the default capacity.
	var scratch [DefaultHostCacheSize]int32
	candidates := scratch[:0]
	a, b := hc.entries()
	for _, run := range [2][]int32{a, b} {
		for _, id := range run {
			if keep(id) {
				candidates = append(candidates, id)
			}
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[r.Intn(len(candidates))], true
}
