package overlay

import "math"

// VertexSet is a vertex set with O(1) reset: v is a member while
// mark[v] == epoch, so Reset is one increment instead of a clearing pass.
// The epoch wrap is handled here, once, for every user: the reset that
// would reach MaxInt32 clears the marks and restarts at 1, so a stale
// stamp can never alias a live one however long the set lives. The zero
// value is unusable; build one with NewVertexSet. Not safe for concurrent
// use.
type VertexSet struct {
	mark  []int32
	epoch int32
}

// NewVertexSet returns an empty set over vertices 0..n-1.
func NewVertexSet(n int) VertexSet { return VertexSet{mark: make([]int32, n), epoch: 1} }

// Reset empties the set.
func (s *VertexSet) Reset() {
	s.epoch++
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 1
	}
}

// Add inserts v and reports whether it was absent.
func (s *VertexSet) Add(v int32) bool {
	if s.mark[v] == s.epoch {
		return false
	}
	s.mark[v] = s.epoch
	return true
}

// Has reports whether v is a member.
func (s *VertexSet) Has(v int32) bool { return s.mark[v] == s.epoch }

// Frontier is the graph-level TTL-bounded flood kernel: it expands a query
// from an origin one ring at a time and hands each ring — the vertices that
// process the query for the first time at that hop — to the caller as a
// slice. Everything above it (coverage, hop counts, object search, churned
// search) is a loop over those rings, free to stop early.
//
// Ring semantics are Gnutella's. The origin transmits one copy to each of
// its neighbours. A vertex processes the first copy it receives and ignores
// the rest; it relays to its neighbours only while TTL remains and only if
// it is an ultrapeer (every vertex of a flat graph is). A relay skips
// neighbours it already knows have processed the query — a neighbour first
// reached earlier in the same ring counts, one reached later does not, so
// two relays of one ring may both transmit to the same fresh vertex. Sent
// counts every transmitted copy. With a liveness mask, copies to dead
// vertices are never transmitted (the origin is assumed alive).
//
// A Frontier reuses its buffers, so a warmed one allocates nothing per
// flood. It must not be shared between goroutines; the graph is read-only
// and may be.
type Frontier struct {
	g         *Graph
	seen      VertexSet
	cur, next []int32
	alive     []bool
	hop, ttl  int
	sent      int
}

// NewFrontier returns a flood kernel over g.
func NewFrontier(g *Graph) *Frontier {
	return &Frontier{g: g, seen: NewVertexSet(g.n)}
}

// Start begins a flood from origin with the given TTL; rings then come
// from Next. alive, when non-nil, masks dead vertices out of the flood. An
// out-of-range origin or a TTL below 1 starts a flood with no rings.
func (f *Frontier) Start(origin, ttl int, alive []bool) {
	f.seen.Reset()
	f.cur, f.alive, f.hop, f.ttl, f.sent = f.cur[:0], alive, 0, ttl, 0
	if origin < 0 || origin >= f.g.n || ttl < 1 {
		return
	}
	f.seen.Add(int32(origin))
	for _, nb := range f.g.adj[origin] {
		if alive == nil || alive[nb] {
			f.cur = append(f.cur, nb)
		}
	}
	f.sent = len(f.cur)
}

// Next returns the next ring, empty once the TTL is spent or the flood has
// died out. The slice is only valid until the following Next or Start.
func (f *Frontier) Next() []int32 {
	if f.hop >= f.ttl || len(f.cur) == 0 {
		return nil
	}
	f.hop++
	g, alive, mark, epoch := f.g, f.alive, f.seen.mark, f.seen.epoch
	relay := f.hop < f.ttl
	next := f.next[:0]
	ring := f.cur[:0] // compacted in place: the write index never passes the read index
	for _, v := range f.cur {
		if mark[v] == epoch {
			continue
		}
		mark[v] = epoch
		ring = append(ring, v)
		if !relay || (g.ultra != nil && !g.ultra[v]) {
			continue
		}
		for _, nb := range g.adj[v] {
			if mark[nb] != epoch && (alive == nil || alive[nb]) {
				next = append(next, nb)
			}
		}
	}
	f.sent += len(next)
	f.cur, f.next = next, ring[:0]
	return ring
}

// Hop returns the hop count of the ring Next returned last (0 before the
// first).
func (f *Frontier) Hop() int { return f.hop }

// Sent returns the query copies transmitted so far in the current flood,
// including those addressed to the ring Next has not returned yet.
func (f *Frontier) Sent() int { return f.sent }

// Seen exposes the visited set (the origin plus every ring so far) so a
// caller's non-flood traversal — a random walk — can Reset and reuse the
// array between floods instead of holding a second one.
func (f *Frontier) Seen() *VertexSet { return &f.seen }
