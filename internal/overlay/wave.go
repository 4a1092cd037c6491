package overlay

import "fmt"

// WaveWidth is the number of floods one Wave pass carries: one per bit of a
// word.
const WaveWidth = 64

// Wave is the reach-only flood kernel: it runs up to WaveWidth floods at
// once, flood i on bit i of every per-vertex word, and reports which of them
// reached one of their targets. Ring semantics are Frontier's — the origin
// sends to every neighbour whatever its role, only ultrapeers relay, and
// only while TTL remains — so a flood's found bit is set exactly when its
// origin, or some vertex on one of the rings Frontier would return, is one
// of its targets.
//
// Relays scan only the relaying core. Target ORs a target's bit into the
// near word of every relay next to it, so a relay sending bits b at a hop
// within TTL finds b&near at once: all its neighbours land at that hop,
// leaves included, and a leaf can be found but never forwards. The relay
// then scans only its relaying neighbours, and only while TTL remains, to
// pass the copies on; a last-hop sender scans nothing. On a two-tier graph
// the Wave keeps every vertex's relaying neighbours as one CSR; on a flat
// graph every vertex relays and the core is the graph's own adjacency. A
// leaf sender can only be an origin, and it scans its whole adjacency.
//
// A pass touches each reached vertex's words once per hop instead of once
// per flood, and floods that have found a target stop relaying. What it
// cannot report is anything that depends on the order copies arrive in:
// transmitted-copy counts, per-flood rings or first-hit hops. Callers that
// need those use Frontier.
//
// A Wave reuses its buffers, so a warmed one allocates nothing per pass. It
// must not be shared between goroutines; the graph is read-only and may be.
type Wave struct {
	g *Graph
	// off and core hold a two-tier graph's relaying neighbours: v's are
	// core[off[v]:off[v+1]], in adjacency order. Both are nil on a flat
	// graph.
	off, core []int32
	// seen is apart from the other words because most landings read it
	// and nothing else: the copy reached a vertex its floods had seen.
	seen []uint64
	cell []waveCell
	// queue holds every vertex that had a non-zero frontier word, hop after
	// hop, and marked those with a non-zero target word, so a shallow pass
	// clears only what it set.
	queue, marked []int32
}

// waveCell keeps the words a fresh landing reads and writes together.
type waveCell struct {
	target uint64
	near   uint64    // target bits of a relay's neighbours; 0 on a leaf
	word   [2]uint64 // current and next frontier words, by hop parity
}

// NewWave returns a reach-only flood kernel over g. On a two-tier graph it
// builds the relaying core in two passes over the adjacency — offsets, then
// arcs into an array of exactly their number — so it allocates the same
// whatever the graph's size.
func NewWave(g *Graph) *Wave {
	w := &Wave{g: g, seen: make([]uint64, g.n), cell: make([]waveCell, g.n)}
	if g.ultra == nil {
		return w
	}
	w.off = make([]int32, g.n+1)
	arcs := 0
	for v, a := range g.adj {
		for _, u := range a {
			if g.ultra[u] {
				arcs++
			}
		}
		w.off[v+1] = int32(arcs)
	}
	w.core = make([]int32, 0, arcs)
	for _, a := range g.adj {
		for _, u := range a {
			if g.ultra[u] {
				w.core = append(w.core, u)
			}
		}
	}
	return w
}

// Graph returns the graph the kernel floods.
func (w *Wave) Graph() *Graph { return w.g }

// relays returns v's relaying neighbours.
func (w *Wave) relays(v int32) []int32 {
	if w.off == nil {
		return w.g.adj[v]
	}
	return w.core[w.off[v]:w.off[v+1]]
}

// Target marks v as a target of flood i for the next Run, and sets bit i
// in the near word of every relay next to v.
func (w *Wave) Target(v int32, i int) {
	bit := uint64(1) << uint(i)
	c := &w.cell[v]
	if c.target == 0 {
		w.marked = append(w.marked, v)
	}
	c.target |= bit
	for _, u := range w.relays(v) {
		w.cell[u].near |= bit
	}
}

// Run floods from origins[i] as flood i, every flood with the given TTL,
// and returns the found mask: bit i is set when origins[i] or a vertex
// flood i reached is one of its targets. It then clears every word it and
// Target set, so the next pass starts empty. A TTL below 1 checks only the
// origins.
func (w *Wave) Run(origins []int32, ttl int) uint64 {
	if len(origins) > WaveWidth {
		panic(fmt.Sprintf("overlay: Wave.Run given %d origins, at most %d", len(origins), WaveWidth))
	}
	all := ^uint64(0) >> (WaveWidth - len(origins)) // Go shifts by 64 to zero
	seen, cells, adj, ultra := w.seen, w.cell, w.g.adj, w.g.ultra
	queue, cur := w.queue[:0], 0
	var found uint64
	for i, o := range origins {
		bit := uint64(1) << uint(i)
		c := &cells[o]
		seen[o] |= bit
		found |= c.target & bit
		if c.word[cur] == 0 {
			queue = append(queue, o)
		}
		c.word[cur] |= bit
	}
	// relayed ends the queue prefix whose relays scanned their lists: the
	// senders of the hops before the last.
	lo, relayed, scanned := 0, 0, 0
	for hop := 1; hop <= ttl && lo < len(queue) && found != all; hop++ {
		relay, hi := hop < ttl, len(queue)
		for _, u := range queue[lo:hi] {
			cu := &cells[u]
			bits := cu.word[cur] &^ found
			cu.word[cur] = 0
			if bits == 0 {
				continue
			}
			if ultra != nil && !ultra[u] { // a leaf origin
				scanned += len(adj[u])
				for _, v := range adj[u] {
					fresh := bits &^ seen[v]
					if fresh == 0 {
						continue
					}
					seen[v] |= fresh
					cv := &cells[v]
					found |= fresh & cv.target
					if relay && ultra[v] {
						if cv.word[cur^1] == 0 {
							queue = append(queue, v)
						}
						cv.word[cur^1] |= fresh
					}
				}
				continue
			}
			found |= bits & cu.near // u's neighbours land at this hop
			if !relay {
				continue
			}
			arcs := w.relays(u)
			scanned += len(arcs)
			for _, v := range arcs {
				fresh := bits &^ seen[v]
				if fresh == 0 {
					continue
				}
				seen[v] |= fresh
				cv := &cells[v]
				if cv.word[cur^1] == 0 {
					queue = append(queue, v)
				}
				cv.word[cur^1] |= fresh
			}
		}
		if relay {
			relayed = hi
		}
		lo, cur = hi, cur^1
	}
	for _, u := range queue[lo:] { // left by an early stop
		cells[u].word[cur] = 0
	}
	// Only origins and the vertices on the lists a pass scanned have seen
	// bits. Walking those lists again beats clearing every vertex while
	// they are short, as shallow passes' are.
	if scanned < len(seen)/8 {
		for _, u := range queue[:relayed] {
			for _, v := range w.relays(u) {
				seen[v] = 0
			}
		}
		for _, o := range origins {
			seen[o] = 0
			if ultra != nil && !ultra[o] {
				for _, v := range adj[o] {
					seen[v] = 0
				}
			}
		}
	} else {
		clear(seen)
	}
	for _, v := range w.marked {
		cells[v].target = 0
		for _, u := range w.relays(v) {
			cells[u].near = 0
		}
	}
	w.queue, w.marked = queue[:0], w.marked[:0]
	return found
}
