package gnet

import (
	"fmt"
	"io"

	"querycentric/internal/dict"
	"querycentric/internal/gmsg"
	"querycentric/internal/parallel"
)

// PeerState is the persistable state of one peer. Addr and ID are derived
// from the peer's position and are not carried; Index is the peer's
// posting index itself (index.go).
type PeerState struct {
	Ultrapeer bool
	ServentID gmsg.GUID
	Neighbors []int
	Library   []File
	Index     IndexState
}

// NetworkState is the deterministic substrate a snapshot persists: the
// topology configuration, every peer's identity/links/library/index, the
// firewalled mask, the shared interned dictionary (as its raw term arena;
// QRP hash products are rebuilt on first use) and the holder index (as
// its raw CSR, so a restore adopts it instead of inverting every posting
// index again). Fault planes, QRP tables and observability attachments are
// runtime state and are not part of a snapshot.
type NetworkState struct {
	Config      Config
	Firewalled  []bool
	Peers       []PeerState
	DictBytes   []byte   // concatenated term bytes, ID order
	DictOff     []uint32 // TermID → DictBytes offset; len = terms+1
	HolderOff   []uint32 // TermID → HolderArena offset; len = terms+1
	HolderArena []byte   // per term, its holders' peer IDs as delta uvarints

	// Borrowed marks a state whose byte slices (file names, posting
	// arenas, skip arrays, dictionary arena, holder index) are zero-copy views of an
	// external mapping rather than heap memory; Backing, when non-nil, is
	// that mapping and is adopted by NewFromState so Network.Close can
	// release it. The loader guarantees the views are never written: all
	// mutable structures built over them are fresh heap allocations.
	Borrowed bool
	Backing  io.Closer
}

// ExportState indexes the network (BuildIndexes, if anything is left to
// build) and returns its persistable state. The returned state shares
// slices with the live network — treat it as an immutable view and do not
// mutate the network while it is in use.
func (nw *Network) ExportState() (*NetworkState, error) {
	if err := nw.BuildIndexes(0); err != nil {
		return nil, err
	}
	st := &NetworkState{
		Config:     nw.Config,
		Firewalled: nw.firewalled,
		Peers:      make([]PeerState, len(nw.Peers)),
	}
	st.DictBytes, st.DictOff = nw.dict.Raw()
	st.HolderOff, st.HolderArena = nw.holders.off, nw.holders.arena
	for i, p := range nw.Peers {
		st.Peers[i] = PeerState{
			Ultrapeer: p.Ultrapeer,
			ServentID: p.ServentID,
			Neighbors: p.Neighbors,
			Library:   p.Library,
			Index:     p.idx,
		}
	}
	return st, nil
}

// NewFromState reconstructs a network from a persisted state: peers get
// their identities, links, libraries and ready-built posting indexes back,
// and the network its holder index, adopted after a structural check
// (adoptHolders), over up to `workers` goroutines; the dictionary is
// checked by dict.FromRaw and builds its QRP hash products on first use.
// The state's slices are adopted, not copied — do not reuse st after a
// successful call.
//
// The snapshot loaders call it before their section digests are joined,
// so it must return an error, never panic, on any state their decoders can
// produce. It reads no posting arena: those are guarded by the digests.
//
// A restored network floods, crawls and serves byte-identically to the
// freshly built network it was exported from.
func NewFromState(st *NetworkState, workers int) (*Network, error) {
	n := len(st.Peers)
	if n <= 1 {
		return nil, fmt.Errorf("gnet: NewFromState: need at least 2 peers, got %d", n)
	}
	if len(st.Firewalled) != n {
		return nil, fmt.Errorf("gnet: NewFromState: firewalled mask has %d entries for %d peers", len(st.Firewalled), n)
	}
	d, err := dict.FromRaw(st.DictBytes, st.DictOff, workers)
	if err != nil {
		return nil, fmt.Errorf("gnet: NewFromState: %w", err)
	}
	nw := &Network{
		Config:     st.Config,
		Peers:      make([]*Peer, n),
		firewalled: st.Firewalled,
		dict:       d,
		backing:    st.Backing,
		borrowed:   st.Borrowed,
	}
	// Per-peer restoration is pure (validation and wiring), so it fans out
	// without affecting the result.
	if err := parallel.ForEach(workers, n, func(i int) error {
		ps := &st.Peers[i]
		nBlocks := (ps.Index.NTerms + postingBlockLen - 1) / postingBlockLen
		if len(ps.Index.BlockFirst) != nBlocks || len(ps.Index.BlockOff) != nBlocks {
			return fmt.Errorf("gnet: NewFromState: peer %d index has %d/%d blocks for %d terms",
				i, len(ps.Index.BlockFirst), len(ps.Index.BlockOff), ps.Index.NTerms)
		}
		p := &Peer{
			ID:        i,
			Addr:      addrFor(i),
			Ultrapeer: ps.Ultrapeer,
			ServentID: ps.ServentID,
			Neighbors: ps.Neighbors,
			Library:   ps.Library,
			dict:      d,
			idx:       ps.Index,
		}
		nw.Peers[i] = p
		return nil
	}); err != nil {
		return nil, err
	}
	nw.markRelays()
	if err := nw.adoptHolders(st.HolderOff, st.HolderArena, workers); err != nil {
		return nil, fmt.Errorf("gnet: NewFromState: %w", err)
	}
	return nw, nil
}
