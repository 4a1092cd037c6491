// Package gnet implements an in-process Gnutella 0.6 network: peers with
// shared libraries, a two-tier (ultrapeer/leaf) or flat topology, keyword
// query flooding under the descriptor TTL/hops rules, the GNUTELLA/0.6
// handshake, and a wire servent that answers crawler connections.
//
// It is the substitute substrate for the live network the paper crawled:
// the crawler in internal/crawler performs a genuine topology crawl (via
// X-Try-Ultrapeers handshake headers, as Cruiser did) and file crawl (via
// browse queries) against this network, and the downstream analyses consume
// only what the crawler observed.
package gnet

import (
	"fmt"
	"io"
	"sync"

	"querycentric/internal/capacity"
	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/faults"
	"querycentric/internal/gmsg"
	"querycentric/internal/qrp"
	"querycentric/internal/rng"
)

// Addr is a synthetic peer address.
type Addr struct {
	IP   [4]byte
	Port uint16
}

// String renders the address as "a.b.c.d:port".
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

// File is one shared library entry.
type File struct {
	Index uint32
	Size  uint32
	Name  string
}

// Peer is one servent in the network.
type Peer struct {
	ID        int
	Addr      Addr
	Ultrapeer bool
	ServentID gmsg.GUID
	Neighbors []int // peer IDs of direct connections
	Library   []File

	// dict resolves tokens to TermIDs for the compact interned index: the
	// network-wide dictionary when the network was built from a catalog,
	// else a peer-local dictionary built lazily from the peer's own
	// library. idx is the posting index over dict's IDs (see index.go).
	dict *dict.Dict
	idx  postingIndex

	// indexOnce guards lazy index construction (parallel floods may race
	// to the first Match).
	indexOnce sync.Once
}

// Config shapes the overlay topology.
type Config struct {
	Seed uint64
	// UltrapeerFrac is the fraction of peers promoted to ultrapeers. Zero
	// builds a flat random topology of degree FlatDegree.
	UltrapeerFrac float64
	// UltraDegree is the number of ultrapeer-to-ultrapeer connections.
	UltraDegree int
	// FlatDegree is the peer degree when UltrapeerFrac is zero.
	FlatDegree int
	// FirewalledFrac is the fraction of peers that refuse inbound crawler
	// connections (they still participate in the overlay).
	FirewalledFrac float64
}

// DefaultConfig is a modern-Gnutella-like two-tier topology: ~15%
// ultrapeers, each ultrapeer keeping ~10 ultrapeer links, leaves attached
// to 3 ultrapeers.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, UltrapeerFrac: 0.15, UltraDegree: 10, FlatDegree: 8}
}

// LeafUltras is how many ultrapeers each leaf connects to.
const LeafUltras = 3

// Network is a fully built Gnutella overlay.
type Network struct {
	Config     Config
	Peers      []*Peer
	firewalled []bool

	// dict is the network-wide interned term dictionary, built once from
	// the catalog all peers share (nil for networks assembled without
	// one). holders lists, per dictionary term, the peers whose index holds
	// it: built by BuildIndexes and NewFromState while every peer matches
	// through dict, dropped by AddFile, consulted once per flood in place of
	// a probe at every reached peer (see holders.go).
	dict    *dict.Dict
	holders holderIndex

	// relay[p] reports whether peer p forwards queries: the ultrapeers of a
	// two-tier network. nil on a flat network, where every peer relays.
	// Roles never change after construction, so floods read this dense array
	// rather than one bool behind each nw.Peers[p] pointer.
	relay []bool

	// qrpTables[p] is leaf p's query-route table, held by its ultrapeers;
	// nil while QRP is disabled. qrpBits is the table width, recorded so
	// floods can hash a query's criteria once instead of per edge.
	qrpTables []*qrp.Table
	qrpBits   uint

	// faults is the injection plane consulted by Dial, servent sessions
	// and Flood; nil injects nothing (see SetFaults).
	faults *faults.Plane

	// capacity is the bounded-ingress overload plane consulted by Flood
	// and the Maintainer's pings; nil admits everything (see SetCapacity).
	capacity *capacity.Plane

	// obs is the attached observability plane; nil (the default) records
	// nothing and costs one pointer check per flood (see Instrument).
	obs *netObs

	// backing pins the storage a mapped-snapshot network borrows its bytes
	// from (file names, posting arenas, skip arrays point into it); nil for
	// heap-built networks. borrowed records that state for diagnostics.
	// Mutating operations never write through the views — neighbor lists
	// and libraries are freshly allocated heap arenas, and index rebuilds
	// replace the postingIndex wholesale — so a borrowed network needs no
	// other special casing (see NewFromState).
	backing  io.Closer
	borrowed bool
}

// Borrowed reports whether the network's file names and posting arenas
// are zero-copy views of a snapshot mapping rather than heap copies.
func (nw *Network) Borrowed() bool { return nw.borrowed }

// Close releases the snapshot mapping backing a network restored with
// snapshot.LoadMapped. After Close every borrowed view (file names,
// posting arenas) is invalid; drop the network. Close is idempotent and a
// no-op for heap-backed networks.
func (nw *Network) Close() error {
	b := nw.backing
	nw.backing = nil
	if b == nil {
		return nil
	}
	return b.Close()
}

// EnableQRP builds a QRP table for every leaf from its shared library, as
// deployed leaves push to their ultrapeers. Floods then apply last-hop
// filtering: an ultrapeer forwards a query to a leaf only if every query
// keyword hits the leaf's table. Only meaningful on two-tier topologies.
//
// With an interned dictionary the tables are built from each leaf's posting
// index: one precomputed hash per distinct library term, instead of
// re-tokenizing and re-hashing every file name. The set of marked slots is
// identical either way (duplicate keyword occurrences map to the same
// slot), so routing decisions do not depend on the path taken.
func (nw *Network) EnableQRP(bits uint) error {
	if _, err := qrp.NewTable(bits); err != nil {
		return err
	}
	interned := nw.dict != nil
	if interned {
		if err := nw.BuildIndexes(0); err != nil {
			return err
		}
	}
	tables := make([]*qrp.Table, len(nw.Peers))
	for _, p := range nw.Peers {
		if p.Ultrapeer {
			continue
		}
		t, err := qrp.NewTable(bits)
		if err != nil {
			return err
		}
		if interned {
			// p.dict is the shared dictionary unless this peer's library
			// was mutated after construction and it fell back to a local
			// one; either way the index's term IDs resolve against p.dict.
			p.idx.forEach(func(id dict.TermID, _ postingsRef) {
				t.AddSlot(p.dict.Slot(id, bits))
			})
		} else {
			for _, f := range p.Library {
				t.AddName(f.Name)
			}
		}
		// The table travels encoded, as a leaf would ship it.
		back, err := qrp.Decode(t.Encode())
		if err != nil {
			return err
		}
		tables[p.ID] = back
	}
	nw.qrpTables = tables
	nw.qrpBits = bits
	return nil
}

// DisableQRP removes route tables (floods forward to every leaf again).
func (nw *Network) DisableQRP() { nw.qrpTables = nil }

// New builds a network of n peers with empty libraries.
func New(cfg Config, n int) (*Network, error) {
	if n <= 1 {
		return nil, fmt.Errorf("gnet: need at least 2 peers, got %d", n)
	}
	if cfg.UltrapeerFrac < 0 || cfg.UltrapeerFrac > 1 {
		return nil, fmt.Errorf("gnet: UltrapeerFrac out of range: %g", cfg.UltrapeerFrac)
	}
	if cfg.FirewalledFrac < 0 || cfg.FirewalledFrac > 1 {
		return nil, fmt.Errorf("gnet: FirewalledFrac out of range: %g", cfg.FirewalledFrac)
	}
	if cfg.UltraDegree <= 0 {
		cfg.UltraDegree = 10
	}
	if cfg.FlatDegree <= 0 {
		cfg.FlatDegree = 8
	}
	nw := &Network{Config: cfg, Peers: make([]*Peer, n), firewalled: make([]bool, n)}
	idRNG := rng.NewNamed(cfg.Seed, "gnet/ids")
	for i := 0; i < n; i++ {
		nw.Peers[i] = &Peer{
			ID:        i,
			Addr:      addrFor(i),
			ServentID: gmsg.GUIDFromUint64s(idRNG.Uint64(), idRNG.Uint64()),
		}
	}
	fwRNG := rng.NewNamed(cfg.Seed, "gnet/firewalled")
	for i := range nw.firewalled {
		nw.firewalled[i] = fwRNG.Bool(cfg.FirewalledFrac)
	}
	if cfg.UltrapeerFrac > 0 {
		nw.buildTwoTier()
	} else {
		nw.buildFlat()
	}
	nw.markRelays()
	return nw, nil
}

// markRelays fills the relay flags from the peers' roles, once those are
// final; a flat network keeps none.
func (nw *Network) markRelays() {
	if nw.Config.UltrapeerFrac <= 0 {
		return
	}
	nw.relay = make([]bool, len(nw.Peers))
	for i, p := range nw.Peers {
		nw.relay[i] = p.Ultrapeer
	}
}

// NewFromCatalog builds a network whose peers share the libraries of a
// content catalog. The catalog must have been built for the same number of
// peers the network will have. Dictionary construction fans out over
// GOMAXPROCS workers; see NewFromCatalogWorkers.
func NewFromCatalog(cfg Config, cat *catalog.Catalog) (*Network, error) {
	return NewFromCatalogWorkers(cfg, cat, 0)
}

// NewFromCatalogWorkers is NewFromCatalog with an explicit worker bound for
// the parallel construction phases (the interned term dictionary; peer
// indexes stay lazy — see BuildIndexes). The built network is byte-identical
// for every worker count: dictionary IDs are assigned in sorted term order
// and the file-size draws stay on one sequential named stream.
func NewFromCatalogWorkers(cfg Config, cat *catalog.Catalog, workers int) (*Network, error) {
	nw, err := New(cfg, len(cat.Libraries))
	if err != nil {
		return nil, err
	}
	sizeRNG := NewFileSizeRNG(cfg.Seed)
	for p, lib := range cat.Libraries {
		files := make([]File, len(lib))
		for i, name := range lib {
			files[i] = File{
				Index: uint32(i),
				Size:  DrawFileSize(sizeRNG),
				Name:  name,
			}
		}
		nw.Peers[p].Library = files
	}
	nw.dict = dict.Build(cat.Libraries, workers)
	for _, p := range nw.Peers {
		p.dict = nw.dict
	}
	return nw, nil
}

// NewFileSizeRNG returns the named stream file sizes are drawn from: one
// sequential stream consumed in global peer order, then library order.
// The sharded snapshot builder draws from the same stream in the same
// order, which is what keeps its libraries byte-identical to this path's.
func NewFileSizeRNG(seed uint64) *rng.Source {
	return rng.NewNamed(seed, "gnet/file-sizes")
}

// DrawFileSize draws the next synthetic file size (1–8 MB) from r.
func DrawFileSize(r *rng.Source) uint32 {
	return uint32(1<<20 + r.Intn(7<<20))
}

// addrFor derives a deterministic synthetic address for peer id.
func addrFor(id int) Addr {
	return Addr{
		IP:   [4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)},
		Port: 6346,
	}
}

// PeerByAddr returns the peer listening at addr, or nil.
func (nw *Network) PeerByAddr(addr Addr) *Peer {
	// addrFor is invertible for the IDs we generate.
	id := int(addr.IP[1])<<16 | int(addr.IP[2])<<8 | int(addr.IP[3])
	if addr.IP[0] != 10 || addr.Port != 6346 || id >= len(nw.Peers) {
		return nil
	}
	return nw.Peers[id]
}

// Firewalled reports whether peer id refuses inbound crawler connections.
func (nw *Network) Firewalled(id int) bool { return nw.firewalled[id] }

// PickLive draws a live, non-empty-library peer distinct from exclude: the
// query-origin / known-item-target draw of every wire-level experiment
// (bounded rejection sampling, one r.Intn per try; -1 when none found). A
// nil mask — or an id past its end — counts as alive, matching
// faults.Plane.LivenessSnapshot.
func (nw *Network) PickLive(alive []bool, r *rng.Source, exclude int) int {
	n := len(nw.Peers)
	for tries := 0; tries < 4*n; tries++ {
		id := r.Intn(n)
		if id == exclude || (id < len(alive) && !alive[id]) || len(nw.Peers[id].Library) == 0 {
			continue
		}
		return id
	}
	return -1
}

// LiveDegree is the topology-health sample of the churn experiments: the
// online fraction of the population and the mean connection count over
// online peers (ghost edges count: the peer believes in them). A function
// rather than a method only because Network's method set is frozen API.
func LiveDegree(nw *Network, online []bool) (onlineFrac, meanDegree float64) {
	up, degSum := 0, 0
	for id, ok := range online {
		if ok {
			up++
			degSum += len(nw.Peers[id].Neighbors)
		}
	}
	if up == 0 {
		return 0, 0
	}
	return float64(up) / float64(len(nw.Peers)), float64(degSum) / float64(up)
}

// buildTwoTier wires the ultrapeer/leaf topology: ultrapeers form a random
// graph of degree UltraDegree; each leaf attaches to LeafUltras ultrapeers.
func (nw *Network) buildTwoTier() {
	r := rng.NewNamed(nw.Config.Seed, "gnet/topology")
	n := len(nw.Peers)
	nUltra := int(float64(n) * nw.Config.UltrapeerFrac)
	if nUltra < 2 {
		nUltra = 2
	}
	perm := r.Perm(n)
	ultras := perm[:nUltra]
	for _, u := range ultras {
		nw.Peers[u].Ultrapeer = true
	}
	// Ultrapeer mesh: connected ring + random chords up to UltraDegree.
	for i, u := range ultras {
		v := ultras[(i+1)%len(ultras)]
		nw.connect(u, v)
	}
	for _, u := range ultras {
		for len(nw.Peers[u].Neighbors) < nw.Config.UltraDegree {
			v := ultras[r.Intn(len(ultras))]
			if v == u || nw.connected(u, v) {
				// Accept that dense small meshes may not reach the target.
				if len(ultras) <= nw.Config.UltraDegree {
					break
				}
				continue
			}
			if len(nw.Peers[v].Neighbors) >= nw.Config.UltraDegree+4 {
				break // don't overload v
			}
			nw.connect(u, v)
		}
	}
	// Leaves.
	for _, p := range perm[nUltra:] {
		for k := 0; k < LeafUltras && k < len(ultras); k++ {
			u := ultras[r.Intn(len(ultras))]
			if nw.connected(p, u) {
				continue
			}
			nw.connect(p, u)
		}
	}
}

// buildFlat wires a flat random topology: connected ring + random chords.
func (nw *Network) buildFlat() {
	r := rng.NewNamed(nw.Config.Seed, "gnet/topology")
	n := len(nw.Peers)
	for i := 0; i < n; i++ {
		nw.connect(i, (i+1)%n)
	}
	target := nw.Config.FlatDegree
	for i := 0; i < n; i++ {
		for attempt := 0; len(nw.Peers[i].Neighbors) < target && attempt < 20*target; attempt++ {
			j := r.Intn(n)
			if j == i || nw.connected(i, j) || len(nw.Peers[j].Neighbors) >= target+4 {
				continue
			}
			nw.connect(i, j)
		}
	}
}

func (nw *Network) connect(a, b int) {
	nw.Peers[a].Neighbors = append(nw.Peers[a].Neighbors, b)
	nw.Peers[b].Neighbors = append(nw.Peers[b].Neighbors, a)
}

// ConnectPeers adds the undirected overlay edge a–b at runtime (overlay
// maintenance: a repaired or re-established connection). It rejects
// self-loops, duplicate edges and out-of-range IDs. Topology mutation must
// not race floods: callers alternate maintenance and measurement phases.
func (nw *Network) ConnectPeers(a, b int) error {
	if a < 0 || a >= len(nw.Peers) || b < 0 || b >= len(nw.Peers) {
		return fmt.Errorf("gnet: connect %d–%d out of range", a, b)
	}
	if a == b {
		return fmt.Errorf("gnet: self-connection at peer %d", a)
	}
	if nw.connected(a, b) {
		return fmt.Errorf("gnet: peers %d and %d already connected", a, b)
	}
	nw.connect(a, b)
	return nil
}

// DisconnectPeers removes the undirected edge a–b (a departure, a detected
// failure, or a received Bye), reporting whether the edge existed. Removal
// preserves the order of the remaining neighbor lists so mutation sequences
// stay deterministic.
func (nw *Network) DisconnectPeers(a, b int) bool {
	if a < 0 || a >= len(nw.Peers) || b < 0 || b >= len(nw.Peers) || a == b {
		return false
	}
	if !removeNeighbor(nw.Peers[a], b) {
		return false
	}
	removeNeighbor(nw.Peers[b], a)
	return true
}

// AddFile installs a copy of (name, size) in peer id's library — the
// replication half of overlay adaptation — and invalidates the peer's
// posting index so its next match rebuilds over the grown library. The
// library is reallocated rather than appended in place, so mapped-snapshot
// networks never write through their borrowed views. Like ConnectPeers,
// library mutation must not race floods: callers alternate adaptation and
// measurement phases. A QRP route table the peer already pushed gains the
// new name's slots (slots are only ever added, as a leaf re-sending a grown
// table would; no other routing decision changes), so last-hop filtering
// still offers the peer every query the replica can answer. The holder index
// is dropped, so floods probe every peer they reach until BuildIndexes
// rebuilds it.
func (nw *Network) AddFile(id int, name string, size uint32) error {
	if id < 0 || id >= len(nw.Peers) {
		return fmt.Errorf("gnet: add file: peer %d out of range", id)
	}
	if name == "" {
		return fmt.Errorf("gnet: add file: empty file name")
	}
	p := nw.Peers[id]
	lib := make([]File, len(p.Library)+1)
	copy(lib, p.Library)
	lib[len(p.Library)] = File{Index: uint32(len(p.Library)), Size: size, Name: name}
	p.Library = lib
	p.idx = postingIndex{}
	p.indexOnce = sync.Once{}
	nw.holders = holderIndex{}
	if nw.qrpTables != nil && nw.qrpTables[id] != nil {
		nw.qrpTables[id].AddName(name)
	}
	return nil
}

// removeNeighbor deletes id from p's neighbor list in place, keeping order.
func removeNeighbor(p *Peer, id int) bool {
	for i, x := range p.Neighbors {
		if x == id {
			p.Neighbors = append(p.Neighbors[:i], p.Neighbors[i+1:]...)
			return true
		}
	}
	return false
}

func (nw *Network) connected(a, b int) bool {
	pa := nw.Peers[a]
	for _, x := range pa.Neighbors {
		if x == b {
			return true
		}
	}
	return false
}

// Partitions counts the connected components of the overlay induced by
// the online peers (edges to offline peers don't carry queries). A nil
// online means every peer is online.
func (nw *Network) Partitions(online []bool) int {
	n := len(nw.Peers)
	seen := make([]bool, n)
	parts := 0
	var stack []int
	for v := 0; v < n; v++ {
		if seen[v] || online != nil && !online[v] {
			continue
		}
		parts++
		seen[v] = true
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range nw.Peers[u].Neighbors {
				if !seen[w] && (online == nil || online[w]) {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return parts
}
