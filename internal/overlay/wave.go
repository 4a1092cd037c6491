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
	word   [2]uint64 // current and next frontier words, by hop parity
}

// NewWave returns a reach-only flood kernel over g.
func NewWave(g *Graph) *Wave {
	return &Wave{g: g, seen: make([]uint64, g.n), cell: make([]waveCell, g.n)}
}

// Graph returns the graph the kernel floods.
func (w *Wave) Graph() *Graph { return w.g }

// Target marks v as a target of flood i for the next Run.
func (w *Wave) Target(v int32, i int) {
	c := &w.cell[v]
	if c.target == 0 {
		w.marked = append(w.marked, v)
	}
	c.target |= 1 << uint(i)
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
	lo, scanned := 0, 0
	for hop := 1; hop <= ttl && lo < len(queue) && found != all; hop++ {
		relay, hi := hop < ttl, len(queue)
		for _, u := range queue[lo:hi] {
			cu := &cells[u]
			bits := cu.word[cur] &^ found
			cu.word[cur] = 0
			if bits == 0 {
				continue
			}
			scanned += len(adj[u])
			for _, v := range adj[u] {
				fresh := bits &^ seen[v]
				if fresh == 0 {
					continue
				}
				seen[v] |= fresh
				cv := &cells[v]
				found |= fresh & cv.target
				if relay && (ultra == nil || ultra[v]) {
					if cv.word[cur^1] == 0 {
						queue = append(queue, v)
					}
					cv.word[cur^1] |= fresh
				}
			}
		}
		lo, cur = hi, cur^1
	}
	for _, u := range queue[lo:] { // left by an early stop
		cells[u].word[cur] = 0
	}
	// Only origins and the neighbours of the vertices that relayed have
	// seen bits. Walking those lists again beats clearing every vertex
	// while they are short, as shallow passes' are.
	if scanned < len(seen)/8 {
		for _, u := range queue[:lo] {
			for _, v := range adj[u] {
				seen[v] = 0
			}
		}
		for _, o := range origins {
			seen[o] = 0
		}
	} else {
		clear(seen)
	}
	for _, v := range w.marked {
		cells[v].target = 0
	}
	w.queue, w.marked = queue[:0], w.marked[:0]
	return found
}
