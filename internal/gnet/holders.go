package gnet

import (
	"fmt"
	"math"
	"math/bits"

	"querycentric/internal/dict"
	"querycentric/internal/parallel"
	"querycentric/internal/vpost"
)

// This file implements the holder index: the network-wide inverse of the
// per-peer posting indexes. The paper's first finding is that almost every
// object lives on a vanishing share of the peers, so "who could answer this
// query" is a tiny set; a flood asks this index once instead of asking every
// peer it reaches (the local-indices idea of the search surveys, held exact
// and network-wide because a simulator can). Which peers a flood reaches,
// and what it transmits, are untouched: the index only decides whose
// posting index is worth a probe once the peer has processed the query.

// holderIndex maps every shared-dictionary term to the ascending IDs of the
// peers whose posting index holds it, as one CSR: term t's list is
// arena[off[t]:off[t+1]], a vpost body (delta uvarints). The byte length of
// a list stands in for its holder count wherever lists are compared — it is
// what decoding the list costs.
type holderIndex struct {
	off   []uint32 // len = dictionary terms + 1; nil until built
	arena []byte
}

func (h *holderIndex) heapBytes() uint64 {
	return uint64(len(h.off))*4 + uint64(len(h.arena))
}

// list returns term t's encoded holder list.
func (h *holderIndex) list(t dict.TermID) []byte { return h.arena[h.off[t]:h.off[t+1]] }

// buildHolders derives the holder index from the built per-peer indexes,
// once: a sizing pass and a fill pass over every peer's term IDs
// (forEachTermID; posting payloads are never touched), each sharded by
// contiguous term-ID range so workers write disjoint state and arena ranges
// — the bytes are the same at any worker count. A peer that AddFile pushed
// onto a local dictionary has no shared-dictionary terms to list, and a list
// that omits a peer would hide its answers, so while any peer matches
// through its own dictionary no index is built and floods probe every peer
// they reach.
func (nw *Network) buildHolders(workers int) error {
	if nw.dict == nil || nw.holders.off != nil {
		return nil
	}
	for _, p := range nw.Peers {
		if p.dict != nw.dict {
			return nil
		}
	}
	n := nw.dict.Len()
	// Per-term pass state, side by side so a visit touches one cache line:
	// the last peer seen holding the term, and the term's encoded length
	// (sizing pass) or write cursor (fill pass).
	type termState struct {
		last int32
		at   uint32
	}
	state := make([]termState, n)
	var arena []byte // nil while sizing
	bounds := nw.holderShardBounds(max(min(parallel.Workers(workers), n), 1))
	pass := func() {
		// The unit function cannot fail, so neither can ForEach.
		_ = parallel.ForEach(workers, len(bounds)-1, func(s int) error {
			lo, hi := bounds[s], bounds[s+1]
			for t := lo; t < hi; t++ {
				state[t].last = -1
			}
			for i, p := range nw.Peers {
				p.idx.forEachTermID(lo, hi, func(ids []dict.TermID) {
					for _, t := range ids {
						st := &state[t]
						gap := uint32(int32(i) - st.last - 1)
						st.last = int32(i)
						if arena == nil {
							st.at += uint32(bits.Len32(gap|1)+6) / 7 // the gap's uvarint length
						} else {
							st.at += uint32(len(vpost.AppendUvarint(arena[st.at:st.at], uint64(gap))))
						}
					}
				})
			}
			return nil
		})
	}
	pass()
	off := make([]uint32, n+1)
	var total uint64
	for t := range state {
		total += uint64(state[t].at)
		if total > math.MaxUint32 {
			return fmt.Errorf("gnet: holder index needs more than %d arena bytes", uint32(math.MaxUint32))
		}
		state[t].at = off[t]
		off[t+1] = uint32(total)
	}
	arena = make([]byte, total)
	pass()
	nw.holders = holderIndex{off: off, arena: arena}
	return nil
}

// holderShardBounds cuts the term-ID space into contiguous ranges holding
// about equally many (peer, term) pairs, judged from every 64th peer. IDs
// are assigned in lexicographic term order, so equal-width ranges would be
// nothing like equal work: the digits-first half of the benchmark
// network's dictionary carries a fifth of its pairs. The bounds decide only
// who builds what, never the bytes built.
func (nw *Network) holderShardBounds(shards int) []dict.TermID {
	n := nw.dict.Len()
	bounds := make([]dict.TermID, shards+1)
	for s := 1; s <= shards; s++ {
		bounds[s] = dict.TermID(n) // a range the sample cannot place stays empty
	}
	if shards == 1 {
		return bounds
	}
	const buckets = 1 << 10
	var hist [buckets]int
	total := 0
	for i := 0; i < len(nw.Peers); i += 64 {
		nw.Peers[i].idx.forEachTermID(0, dict.TermID(n), func(ids []dict.TermID) {
			for _, t := range ids {
				hist[uint64(t)*buckets/uint64(n)]++
			}
			total += len(ids)
		})
	}
	seen, s := 0, 1
	for b := 0; b < buckets && s < shards; b++ {
		seen += hist[b]
		for s < shards && seen*shards >= total*s {
			bounds[s] = dict.TermID(uint64(b+1) * uint64(n) / buckets)
			s++
		}
	}
	return bounds
}

// holderDenseShare bounds the lists a flood will decode: a rarest term held
// by more than one peer in holderDenseShare is no filter worth its decode —
// the flood may reach a handful of peers while the list names a large share
// of a million — so such floods probe every reached peer instead.
const holderDenseShare = 8

// selectHolders decides, once per flood, which peers are worth a match
// probe. It orders qids by holder-list length — the probe order of every
// per-peer match, rarest first, unknown terms before all — and stamps the
// rarest term's holders into c.cand with the flood's epoch. It reports
// false when there is no holder index or the rarest list is dense: the
// flood then probes every peer it reaches. When it reports true only stamped peers can match; a
// query carrying NoTerm stamps no holder, since no listed peer holds a term
// the shared dictionary lacks.
func (c *FloodCtx) selectHolders(qids []dict.TermID) bool {
	h := &c.nw.holders
	if h.off == nil {
		return false
	}
	size := func(t dict.TermID) int {
		if t == dict.NoTerm {
			return -1
		}
		return int(h.off[t+1] - h.off[t])
	}
	for i := 1; i < len(qids); i++ {
		for j := i; j > 0 && size(qids[j]) < size(qids[j-1]); j-- {
			qids[j], qids[j-1] = qids[j-1], qids[j]
		}
	}
	var list []byte
	if qids[0] != dict.NoTerm {
		list = h.list(qids[0])
		if len(list)*holderDenseShare > len(c.seen) {
			return false
		}
	}
	if c.cand == nil {
		c.cand = make([]int32, len(c.seen))
	}
	cand, epoch := c.cand, c.epoch
	// The vpost body decode, inlined like lookup's: this runs once per flood
	// over a list of up to len(peers)/holderDenseShare bytes.
	peer := int32(-1)
	for i := 0; i < len(list); {
		b := list[i]
		i++
		gap := int32(b & 0x7f)
		for s := 7; b >= 0x80; s += 7 {
			b = list[i]
			i++
			gap |= int32(b&0x7f) << s
		}
		peer += gap + 1
		cand[peer] = epoch
	}
	return true
}
