// Package chord implements a Chord distributed hash table over simulated
// nodes: a 64-bit identifier ring, finger tables, successor lists and
// iterative greedy lookup. It is the structured-overlay baseline the paper
// compares hybrid search against ("a hybrid P2P system ... would perform
// worse than a DHT-based search").
//
// The implementation routes lookups through finger tables exactly as Chord
// does (closest preceding finger, then successor), counting hops; transport
// and failure handling are simulated since the experiments only need
// routing cost and ownership semantics.
package chord

import (
	"fmt"
	"sort"

	"querycentric/internal/rng"
)

// M is the identifier-space width in bits.
const M = 64

// fingerCount bounds the finger table; 64 fingers cover the full space.
const fingerCount = M

// Node is one DHT participant.
type Node struct {
	ID    uint64 // position on the ring
	Index int    // application-level node index (e.g. overlay vertex)

	fingers    []int // indices into the ring's sorted node slice
	succListID []uint64
}

// Ring is a stabilized Chord ring.
type Ring struct {
	nodes []*Node // sorted by ID
	byIdx map[int]*Node
}

// HashKey maps an object key string onto the ring (FNV-1a, finalized).
func HashKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// New builds a ring of n nodes with pseudo-random identifiers derived from
// seed, then stabilizes (builds fingers and successor lists).
func New(n int, seed uint64) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chord: node count must be positive, got %d", n)
	}
	r := rng.NewNamed(seed, "chord/ids")
	ring := &Ring{byIdx: make(map[int]*Node, n)}
	used := map[uint64]bool{}
	for i := 0; i < n; i++ {
		id := r.Uint64()
		for used[id] {
			id = r.Uint64()
		}
		used[id] = true
		node := &Node{ID: id, Index: i}
		ring.nodes = append(ring.nodes, node)
		ring.byIdx[i] = node
	}
	sort.Slice(ring.nodes, func(i, j int) bool { return ring.nodes[i].ID < ring.nodes[j].ID })
	ring.Stabilize()
	return ring, nil
}

// NodeByIndex returns the node with the given application index, or nil.
func (r *Ring) NodeByIndex(idx int) *Node { return r.byIdx[idx] }

// successorPos returns the position (in r.nodes) of the first node with
// ID >= id, wrapping.
func (r *Ring) successorPos(id uint64) int {
	pos := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	if pos == len(r.nodes) {
		return 0
	}
	return pos
}

// Successor returns the node owning id.
func (r *Ring) Successor(id uint64) *Node {
	return r.nodes[r.successorPos(id)]
}

// Stabilize rebuilds every node's finger table and successor list. Call
// after AddNode/RemoveNode batches.
func (r *Ring) Stabilize() {
	const succListLen = 4
	for pos, n := range r.nodes {
		n.fingers = n.fingers[:0]
		for k := 0; k < fingerCount; k++ {
			target := n.ID + (uint64(1) << uint(k)) // wraps naturally
			n.fingers = append(n.fingers, r.successorPos(target))
		}
		n.succListID = n.succListID[:0]
		for s := 1; s <= succListLen; s++ {
			n.succListID = append(n.succListID, r.nodes[(pos+s)%len(r.nodes)].ID)
		}
	}
}

// inOpenInterval reports whether x ∈ (a, b) on the ring.
func inOpenInterval(x, a, b uint64) bool {
	if a < b {
		return x > a && x < b
	}
	return x > a || x < b // wrapped
}

// Lookup routes from the given start node to the owner of key, returning
// the owner and the hop count (0 when the start node owns the key).
func (r *Ring) Lookup(key uint64, from *Node) (*Node, int, error) {
	if from == nil {
		return nil, 0, fmt.Errorf("chord: lookup from nil node")
	}
	owner := r.Successor(key)
	cur := from
	hops := 0
	for cur != owner {
		if hops > 2*len(r.nodes) {
			return nil, hops, fmt.Errorf("chord: lookup for %x did not converge", key)
		}
		next := r.closestPrecedingFinger(cur, key)
		if next == cur {
			// No finger strictly precedes the key: the successor owns it.
			next = r.nodes[(r.posOf(cur)+1)%len(r.nodes)]
		}
		cur = next
		hops++
	}
	return owner, hops, nil
}

// posOf locates a node's position in the sorted slice.
func (r *Ring) posOf(n *Node) int {
	return r.successorPos(n.ID)
}

// closestPrecedingFinger returns the finger of n closest to (but strictly
// preceding) key, or n if none.
func (r *Ring) closestPrecedingFinger(n *Node, key uint64) *Node {
	for k := len(n.fingers) - 1; k >= 0; k-- {
		f := r.nodes[n.fingers[k]]
		if f != n && inOpenInterval(f.ID, n.ID, key) {
			return f
		}
	}
	return n
}

// AddNode inserts a node with the given application index and re-sorts; the
// caller must Stabilize before further lookups.
func (r *Ring) AddNode(idx int, seed uint64) (*Node, error) {
	if _, exists := r.byIdx[idx]; exists {
		return nil, fmt.Errorf("chord: node index %d already present", idx)
	}
	g := rng.NewNamed(seed, fmt.Sprintf("chord/join/%d", idx))
	id := g.Uint64()
	for r.hasID(id) {
		id = g.Uint64()
	}
	n := &Node{ID: id, Index: idx}
	r.nodes = append(r.nodes, n)
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].ID < r.nodes[j].ID })
	r.byIdx[idx] = n
	return n, nil
}

// RemoveNode removes the node with the given application index; the caller
// must Stabilize before further lookups.
func (r *Ring) RemoveNode(idx int) error {
	n, ok := r.byIdx[idx]
	if !ok {
		return fmt.Errorf("chord: node index %d not present", idx)
	}
	if len(r.nodes) == 1 {
		return fmt.Errorf("chord: cannot remove the last node")
	}
	delete(r.byIdx, idx)
	pos := r.posOf(n)
	r.nodes = append(r.nodes[:pos], r.nodes[pos+1:]...)
	return nil
}

func (r *Ring) hasID(id uint64) bool {
	pos := sort.Search(len(r.nodes), func(i int) bool { return r.nodes[i].ID >= id })
	return pos < len(r.nodes) && r.nodes[pos].ID == id
}

// Store is a simple DHT key→values store layered on ring ownership: values
// live at the key's owner node. It models object publication in hybrid
// systems.
type Store struct {
	ring *Ring
	data map[int]map[uint64][]int32 // owner index -> key -> values
}

// NewStore creates an empty store on a ring.
func NewStore(ring *Ring) *Store {
	return &Store{ring: ring, data: map[int]map[uint64][]int32{}}
}

// Put publishes value under key, routed from the publishing node; returns
// the routing hop count.
func (s *Store) Put(key uint64, value int32, from *Node) (int, error) {
	owner, hops, err := s.ring.Lookup(key, from)
	if err != nil {
		return hops, err
	}
	m := s.data[owner.Index]
	if m == nil {
		m = map[uint64][]int32{}
		s.data[owner.Index] = m
	}
	m[key] = append(m[key], value)
	return hops, nil
}

// Get retrieves the values stored under key, routed from the querying node.
func (s *Store) Get(key uint64, from *Node) ([]int32, int, error) {
	owner, hops, err := s.ring.Lookup(key, from)
	if err != nil {
		return nil, hops, err
	}
	return s.data[owner.Index][key], hops, nil
}
