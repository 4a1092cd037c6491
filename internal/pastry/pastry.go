// Package pastry implements Pastry-style prefix routing (Rowstron &
// Druschel, Middleware 2001) over simulated nodes: 64-bit identifiers read
// as sixteen 4-bit digits, per-node routing tables indexed by shared-prefix
// length, leaf sets of numerically close neighbours, and greedy prefix
// routing with the numerically-closer fallback rule.
//
// The paper names Pastry (with Tapestry) as the archetypal structured
// overlay whose exact-match lookups hybrid systems fall back to; this
// package provides it as a second structured baseline next to Chord, so
// the structured-lookup costs in the comparisons are not an artifact of
// one DHT design.
package pastry

import (
	"fmt"
	"sort"

	"querycentric/internal/rng"
)

// DigitBits is the size of one identifier digit (2^2b routing columns).
const DigitBits = 4

// Digits is the number of digits in a 64-bit identifier.
const Digits = 64 / DigitBits

// cols is the number of columns per routing-table row.
const cols = 1 << DigitBits

// leafHalf is the number of leaf-set entries on each side.
const leafHalf = 4

// Node is one Pastry participant.
type Node struct {
	ID    uint64
	Index int // application-level index
	pos   int // position in the mesh's sorted node slice

	// table[r][c] is the position (in the mesh's sorted node slice) of a
	// node sharing the first r digits with this node and having digit c at
	// position r, or -1.
	table [][]int32
	// leaf holds positions of the numerically adjacent nodes.
	leaf []int32
}

// Mesh is a stabilized Pastry overlay.
type Mesh struct {
	nodes []*Node // sorted by ID
	byIdx map[int]*Node
}

// digit extracts the i-th (0 = most significant) 4-bit digit of id.
func digit(id uint64, i int) int {
	return int(id >> (64 - DigitBits*(i+1)) & (cols - 1))
}

// sharedPrefixLen counts leading digits common to a and b.
func sharedPrefixLen(a, b uint64) int {
	x := a ^ b
	if x == 0 {
		return Digits
	}
	n := 0
	for digit(x, n) == 0 {
		n++
	}
	return n
}

// New builds a mesh of n nodes with pseudo-random identifiers.
func New(n int, seed uint64) (*Mesh, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pastry: node count must be positive, got %d", n)
	}
	r := rng.NewNamed(seed, "pastry/ids")
	m := &Mesh{byIdx: make(map[int]*Node, n)}
	used := map[uint64]bool{}
	for i := 0; i < n; i++ {
		id := r.Uint64()
		for used[id] {
			id = r.Uint64()
		}
		used[id] = true
		node := &Node{ID: id, Index: i}
		m.nodes = append(m.nodes, node)
		m.byIdx[i] = node
	}
	sort.Slice(m.nodes, func(i, j int) bool { return m.nodes[i].ID < m.nodes[j].ID })
	for pos, node := range m.nodes {
		node.pos = pos
	}
	m.build()
	return m, nil
}

// NodeByIndex returns the node with the given application index, or nil.
func (m *Mesh) NodeByIndex(idx int) *Node { return m.byIdx[idx] }

// build fills every node's routing table and leaf set from the global
// view (the simulated equivalent of a converged join protocol).
func (m *Mesh) build() {
	n := len(m.nodes)
	ids := make([]uint64, n)
	for i, node := range m.nodes {
		ids[i] = node.ID
	}
	for pos, node := range m.nodes {
		node.table = make([][]int32, 0, 8)
		for row := 0; row < Digits; row++ {
			// Prefix of this node's ID up to row digits.
			var tr []int32
			filled := false
			for c := 0; c < cols; c++ {
				if c == digit(node.ID, row) {
					if tr == nil {
						tr = make([]int32, cols)
					}
					tr[c] = -1 // own digit: no entry needed
					continue
				}
				lo, hi := prefixRange(node.ID, row, c)
				i := sort.Search(n, func(k int) bool { return ids[k] >= lo })
				if tr == nil {
					tr = make([]int32, cols)
				}
				if i < n && ids[i] <= hi {
					tr[c] = int32(i)
					filled = true
				} else {
					tr[c] = -1
				}
			}
			node.table = append(node.table, tr)
			if !filled && row > 0 {
				// No other node shares even this prefix: deeper rows are
				// necessarily empty too.
				break
			}
		}
		// Leaf set: numerically adjacent nodes on both sides (wrapping).
		node.leaf = node.leaf[:0]
		for d := 1; d <= leafHalf && d < n; d++ {
			node.leaf = append(node.leaf,
				int32((pos+d)%n), int32((pos-d+n)%n))
		}
	}
}

// prefixRange returns the identifier interval of IDs that share the first
// row digits with id and have digit c at position row.
func prefixRange(id uint64, row, c int) (lo, hi uint64) {
	shift := 64 - DigitBits*row
	var prefix uint64
	if shift < 64 {
		prefix = id >> shift << shift
	}
	digShift := 64 - DigitBits*(row+1)
	lo = prefix | uint64(c)<<digShift
	hi = lo | (uint64(1)<<digShift - 1)
	return lo, hi
}

// Owner returns the node numerically closest to key (plain absolute
// distance, as Pastry defines key ownership; ties toward the lower ID).
func (m *Mesh) Owner(key uint64) *Node {
	n := len(m.nodes)
	i := sort.Search(n, func(k int) bool { return m.nodes[k].ID >= key })
	switch {
	case i == 0:
		return m.nodes[0]
	case i == n:
		return m.nodes[n-1]
	}
	a, b := m.nodes[i-1], m.nodes[i] // a.ID < key <= b.ID
	if key-a.ID < b.ID-key {
		return a
	}
	if key-a.ID > b.ID-key {
		return b
	}
	return a // tie: lower ID
}

// absDist is the plain numeric distance between identifiers.
func absDist(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Lookup routes from the given node to the owner of key, returning the
// owner and the hop count.
func (m *Mesh) Lookup(key uint64, from *Node) (*Node, int, error) {
	if from == nil {
		return nil, 0, fmt.Errorf("pastry: lookup from nil node")
	}
	owner := m.Owner(key)
	cur := from
	hops := 0
	for cur != owner {
		if hops > 2*Digits+len(m.nodes) {
			return nil, hops, fmt.Errorf("pastry: lookup for %x did not converge", key)
		}
		next := m.route(cur, key, owner)
		if next == cur {
			return nil, hops, fmt.Errorf("pastry: routing stalled at node %d for %x", cur.Index, key)
		}
		cur = next
		hops++
	}
	return owner, hops, nil
}

// route picks the next hop per the Pastry rules: (1) if the key falls
// within the current node's leaf-set window, deliver directly to the
// numerically closest node there (which is the owner); (2) otherwise take
// the routing-table entry extending the shared prefix; (3) in the rare
// case the entry is empty, move to any known node at least as long in
// shared prefix and strictly numerically closer — each rule strictly
// increases shared prefix or decreases distance, so routing terminates.
func (m *Mesh) route(cur *Node, key uint64, owner *Node) *Node {
	// Rule 1: the owner sits inside cur's leaf window.
	if d := cur.pos - owner.pos; d >= -leafHalf && d <= leafHalf {
		return owner
	}
	// Rule 2: prefix extension.
	l := sharedPrefixLen(cur.ID, key)
	if l < len(cur.table) {
		if p := cur.table[l][digit(key, l)]; p >= 0 {
			return m.nodes[p]
		}
	}
	// Rule 3: rare-case fallback over leaf set and table.
	best := cur
	bestD := absDist(cur.ID, key)
	consider := func(p int32) {
		if p < 0 {
			return
		}
		node := m.nodes[p]
		if sharedPrefixLen(node.ID, key) < l {
			return
		}
		if d := absDist(node.ID, key); d < bestD {
			best, bestD = node, d
		}
	}
	for _, p := range cur.leaf {
		consider(p)
	}
	for _, row := range cur.table {
		for _, p := range row {
			consider(p)
		}
	}
	if best != cur {
		return best
	}
	// Degenerate corner (digit-boundary keys): walk the sorted ring
	// toward the owner; position distance strictly decreases.
	if owner.pos > cur.pos {
		return m.nodes[cur.pos+1]
	}
	return m.nodes[cur.pos-1]
}
