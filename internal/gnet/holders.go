package gnet

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

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
//
// The exception is the popular core: a query whose every term is dense
// (held by more than one peer in holderDenseShare) may be answered by a
// large share of the peers it reaches, so there is nobody to skip. Such a
// flood reads each reached peer's postings through the terms' offset
// columns (denseColumns) — payload offsets per peer, built lazily from
// the holder lists — instead of searching the peer's index block by
// block; a peer some column passes over is never touched at all.
//
// The index is built once, by BuildIndexes (buildHolders) or by the
// sharded snapshot builder — one inversion, HolderEncoder, over the peers'
// IndexState values, live or decoded from the snapshot's index rows, so
// the bytes agree — and persisted with the snapshot: a restore adopts the
// stored lists after checking them (adoptHolders) instead of inverting
// again.

// holderIndex maps every shared-dictionary term to the ascending IDs of the
// peers whose posting index holds it, as one CSR: term t's list is
// arena[off[t]:off[t+1]], a vpost body (delta uvarints). The byte length of
// a list stands in for its holder count wherever lists are compared — it is
// what decoding the list costs. cols holds the offset columns of the dense
// terms floods have named so far: flood-time state, never persisted, built
// with the index's arenas in view and dropped with the index (AddFile,
// intern), so no column outlives the posting arenas its offsets point into.
type holderIndex struct {
	off   []uint32 // len = dictionary terms + 1; nil until built
	arena []byte
	cols  *denseColumns
}

// newHolderIndex wraps built or adopted lists, with no column built yet.
func newHolderIndex(off []uint32, arena []byte) holderIndex {
	return holderIndex{off: off, arena: arena, cols: &denseColumns{col: map[dict.TermID][]uint32{}}}
}

func (h *holderIndex) heapBytes() uint64 {
	return uint64(len(h.off))*4 + uint64(len(h.arena))
}

// list returns term t's encoded holder list.
func (h *holderIndex) list(t dict.TermID) []byte { return h.arena[h.off[t]:h.off[t+1]] }

// dense reports whether term t is dense in a network of the given peer
// count (see holderDenseShare).
func (h *holderIndex) dense(t dict.TermID, peers int) bool {
	return len(h.list(t))*holderDenseShare > peers
}

// buildHolders derives the holder index from the built per-peer indexes,
// once; the network must be indexed.
func (nw *Network) buildHolders(workers int) error {
	if nw.holders.off != nil {
		return nil
	}
	n := nw.dict.Len()
	e, err := NewHolderEncoder(n, len(nw.Peers), func(i int) IndexState { return nw.Peers[i].idx }, workers)
	if err != nil {
		return err
	}
	off := make([]uint32, 0, n+1)
	e.Offsets(func(o []uint32) { off = append(off, o...) })
	nw.holders = newHolderIndex(off, e.fill(0, dict.TermID(n)))
	return nil
}

// HolderEncoder inverts per-peer posting indexes into the holder index, in
// the two passes every build takes: a sizing pass over every peer's term
// IDs (posting payloads are never touched), then a fill pass that writes
// each term's delta-uvarint list. Each pass is sharded by
// contiguous term-ID range so workers write disjoint state and arena
// ranges — the bytes are the same at any worker count and any piece size.
// Beside the arena piece being filled it holds 8 bytes of pass state per
// term, which is what lets the sharded snapshot builder stream a holder
// index it never holds whole.
type HolderEncoder struct {
	index   func(i int) IndexState // peer i's index; called concurrently
	peers   int
	workers int
	// Per-term pass state, side by side so a visit touches one cache line:
	// the last peer seen holding the term, and the term's encoded length
	// (sizing pass) or write cursor (fill pass).
	state []holderTermState
	total uint64 // arena bytes
}

type holderTermState struct {
	last int32
	at   uint32
}

// NewHolderEncoder runs the sizing pass over the posting indexes of peers
// [0, peers) — index(i) returns peer i's index, live or decoded from a
// snapshot row, and is called concurrently, several times per peer — for a
// dictionary of terms terms.
func NewHolderEncoder(terms, peers int, index func(i int) IndexState, workers int) (*HolderEncoder, error) {
	e := &HolderEncoder{index: index, peers: peers, workers: workers, state: make([]holderTermState, terms)}
	e.pass(e.sizingBounds(max(min(parallel.Workers(workers), terms), 1)), nil, 0)
	for t := range e.state {
		size := e.state[t].at
		e.state[t].at = uint32(e.total)
		e.total += uint64(size)
		if e.total > math.MaxUint32 {
			return nil, fmt.Errorf("gnet: holder index needs more than %d arena bytes", uint32(math.MaxUint32))
		}
	}
	return e, nil
}

// ArenaLen is the byte length of the whole holder arena.
func (e *HolderEncoder) ArenaLen() uint64 { return e.total }

// Offsets hands the index's off array (terms+1 entries) to emit in order,
// in pieces. Call it before Arena, which advances the cursors it reads.
func (e *HolderEncoder) Offsets(emit func(off []uint32)) {
	var piece [1024]uint32
	k := 0
	for t := range e.state {
		piece[k] = e.state[t].at
		if k++; k == len(piece) {
			emit(piece[:])
			k = 0
		}
	}
	piece[k] = uint32(e.total)
	emit(piece[:k+1])
}

// Arena fills the arena and hands it to emit in order, in term-range
// pieces of at most maxPiece bytes (a longer single list is a piece of its
// own). Each piece is a fresh slice.
func (e *HolderEncoder) Arena(maxPiece int, emit func(piece []byte)) {
	n := len(e.state)
	end := func(j int) uint64 {
		if j == n {
			return e.total
		}
		return uint64(e.state[j].at)
	}
	for lo := 0; lo < n; {
		base := end(lo)
		// The longest run of terms from lo whose lists fit, at least one.
		j := lo + 1 + sort.Search(n-lo, func(k int) bool { return end(lo+1+k)-base > uint64(maxPiece) })
		hi := max(j-1, lo+1)
		emit(e.fill(dict.TermID(lo), dict.TermID(hi)))
		lo = hi
	}
}

// fill runs the fill pass over terms [lo, hi) and returns their arena
// piece. Work is split by arena bytes, which the cursors now know exactly.
func (e *HolderEncoder) fill(lo, hi dict.TermID) []byte {
	if lo >= hi {
		return []byte{}
	}
	base := e.state[lo].at
	end := uint32(e.total)
	if int(hi) < len(e.state) {
		end = e.state[hi].at
	}
	arena := make([]byte, end-base)
	shards := max(min(parallel.Workers(e.workers), int(hi-lo)), 1)
	bounds := make([]dict.TermID, shards+1)
	bounds[0], bounds[shards] = lo, hi
	for s := 1; s < shards; s++ {
		cut := base + uint32(uint64(end-base)*uint64(s)/uint64(shards))
		bounds[s] = lo + dict.TermID(sort.Search(int(hi-lo), func(k int) bool { return e.state[int(lo)+k].at >= cut }))
	}
	e.pass(bounds, arena, base)
	return arena
}

// pass runs one sizing (arena nil) or fill pass over the term ranges
// bounds cuts, one range per unit of work.
func (e *HolderEncoder) pass(bounds []dict.TermID, arena []byte, base uint32) {
	// The unit function cannot fail, so neither can ForEach.
	_ = parallel.ForEach(e.workers, len(bounds)-1, func(s int) error {
		lo, hi := bounds[s], bounds[s+1]
		if lo >= hi {
			return nil
		}
		state := e.state
		for t := lo; t < hi; t++ {
			state[t].last = -1
		}
		// A peer's term IDs in [lo, hi) are read without touching posting
		// payloads: the skip array seeks to the block that could hold lo,
		// and blockTermIDs reads only each block's id-delta section, which
		// its header bounds. This is what keeps the holder-index build cheap.
		var block [postingBlockLen]dict.TermID
		for i := 0; i < e.peers; i++ {
			ix := e.index(i)
			first := ix.BlockFirst
			// Blocks before the last one starting at or below lo end below lo.
			b := max(sort.Search(len(first), func(j int) bool { return first[j] > lo })-1, 0)
			for ; b < len(first) && first[b] < hi; b++ {
				for _, t := range ix.blockTermIDs(b, &block) {
					if t < lo {
						continue
					}
					if t >= hi {
						break
					}
					st := &state[t]
					gap := uint32(int32(i) - st.last - 1)
					st.last = int32(i)
					if arena == nil {
						st.at += uint32(bits.Len32(gap|1)+6) / 7 // the gap's uvarint length
					} else {
						st.at += uint32(len(vpost.AppendUvarint(arena[st.at-base:st.at-base], uint64(gap))))
					}
				}
			}
		}
		return nil
	})
}

// sizingBounds cuts the term-ID space into contiguous ranges holding
// about equally many (peer, term) pairs, judged from every 64th peer. IDs
// are assigned in lexicographic term order, so equal-width ranges would be
// nothing like equal work: the digits-first half of the benchmark
// network's dictionary carries a fifth of its pairs. The bounds decide only
// who builds what, never the bytes built.
func (e *HolderEncoder) sizingBounds(shards int) []dict.TermID {
	n := len(e.state)
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
	var block [postingBlockLen]dict.TermID
	for i := 0; i < e.peers; i += 64 {
		ix := e.index(i)
		for b := range ix.BlockFirst {
			ids := ix.blockTermIDs(b, &block)
			for _, t := range ids {
				hist[uint64(t)*buckets/uint64(n)]++
			}
			total += len(ids)
		}
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

// adoptHolders installs a persisted holder index — views of a snapshot's
// holder section — after checking every property a flood's decode relies
// on, split by term range across workers: one offset per term plus one,
// monotone from 0 to the arena's length; every list a run of complete
// uvarints (at most five bytes each) decoding to peer IDs below the peer
// count (strictly ascending by construction: each is the last plus
// gap+1); and as many list entries in all as the peers' indexes hold
// terms. What the checks cannot see — a list naming the wrong
// peers — the section digest guards, as it guards the posting arenas the
// lists are derived from.
func (nw *Network) adoptHolders(off []uint32, arena []byte, workers int) error {
	n := nw.dict.Len()
	if len(off) != n+1 {
		return fmt.Errorf("holder index has %d offsets for %d terms", len(off), n)
	}
	if off[0] != 0 || uint64(off[n]) != uint64(len(arena)) {
		return fmt.Errorf("holder offsets run from %d to %d over a %d-byte arena", off[0], off[n], len(arena))
	}
	var want uint64
	for _, p := range nw.Peers {
		want += uint64(p.idx.NTerms)
	}
	// Ranges of about equal arena bytes; on a non-monotone off the search
	// still returns some cut, and clamping keeps the ranges ordered.
	shards := max(min(parallel.Workers(workers), n), 1)
	bounds := make([]int, shards+1)
	bounds[shards] = n
	for s := 1; s < shards; s++ {
		cut := uint32(uint64(len(arena)) * uint64(s) / uint64(shards))
		bounds[s] = max(bounds[s-1], sort.Search(n, func(t int) bool { return off[t] >= cut }))
	}
	entries := make([]uint64, shards)
	peers := uint64(len(nw.Peers))
	if err := parallel.ForEach(workers, shards, func(s int) error {
		var count uint64
		for t := bounds[s]; t < bounds[s+1]; t++ {
			a, b := off[t], off[t+1]
			if a > b || uint64(b) > uint64(len(arena)) {
				return fmt.Errorf("holder offsets of term %d run from %d to %d", t, a, b)
			}
			list := arena[a:b]
			if len(list) > 0 && list[len(list)-1] >= 0x80 {
				return fmt.Errorf("holder list of term %d ends inside a varint", t)
			}
			// IDs ascend by gap+1 from -1, so the list is in range when
			// its last ID is; single-byte gaps are the common case.
			var end uint64 // last ID + 1
			for i := 0; i < len(list); i++ {
				count++
				c := list[i]
				if c < 0x80 {
					end += uint64(c) + 1
					continue
				}
				gap := uint64(c & 0x7f)
				for k := 1; c >= 0x80; k++ { // the list's last byte ends every varint
					if k == 5 {
						return fmt.Errorf("holder list of term %d holds a varint over five bytes", t)
					}
					i++
					c = list[i]
					gap |= uint64(c&0x7f) << (7 * k)
				}
				if gap >= peers {
					return fmt.Errorf("holder list of term %d skips %d of %d peers", t, gap, peers)
				}
				end += gap + 1
			}
			if end > peers {
				return fmt.Errorf("holder list of term %d names peer %d of %d", t, end-1, peers)
			}
		}
		entries[s] = count
		return nil
	}); err != nil {
		return err
	}
	var got uint64
	for _, c := range entries {
		got += c
	}
	if got != want {
		return fmt.Errorf("holder index lists %d entries, the peer indexes hold %d terms", got, want)
	}
	nw.holders = newHolderIndex(off, arena)
	return nil
}

// holderDenseShare bounds the lists a flood will decode: a term whose
// holder list is longer than len(peers)/holderDenseShare bytes (at least
// as many holders) is dense — no filter worth its decode, since the flood
// may reach a handful of peers while the list names a large share of a
// million. A flood whose rarest term is dense reads its postings through
// the terms' offset columns (denseColumns) instead.
const holderDenseShare = 8

// denseColumns holds, per dense term a flood has named, its offset column:
// for every peer, the arena offset of the term's posting payload in that
// peer's index (0 when the peer does not hold the term; payloads never
// start at 0, a block header comes first), with columnMulti set when the
// payload holds more than one posting. The first flood that needs a column
// builds it — one block walk per holder — under mu, so floods on separate
// FloodCtxs may share the network; a built column is never written again.
// A term some holder's arena is too long to address in 31 bits maps to
// nil, and its floods probe every reached peer.
type denseColumns struct {
	mu  sync.Mutex
	col map[dict.TermID][]uint32
}

// columnMulti flags a column entry whose payload is a count and a vpost
// body rather than one inline posting.
const columnMulti = 1 << 31

// columns refills dst with the offset column of each of qids — every one
// a dense term of nw — building the missing ones, and leaves it empty when
// some term has no usable column.
func (d *denseColumns) columns(nw *Network, qids []dict.TermID, dst [][]uint32) [][]uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst = dst[:0]
	for _, t := range qids {
		col, ok := d.col[t]
		if !ok {
			col = buildColumn(nw, t)
			d.col[t] = col
		}
		if col == nil {
			return dst[:0]
		}
		dst = append(dst, col)
	}
	return dst
}

// buildColumn walks term t's holder list and locates t in each holder's
// index, through the same block walk and payload offsets lookup uses.
func buildColumn(nw *Network, t dict.TermID) []uint32 {
	col := make([]uint32, len(nw.Peers))
	list := nw.holders.list(t)
	peer := -1
	for i := 0; i < len(list); {
		gap, n := vpost.Uvarint(list[i:])
		i += n
		peer += int(gap) + 1
		off, multi, ok := nw.Peers[peer].idx.locate(t)
		switch {
		case !ok:
			// A list naming a peer that lacks the term (only a damaged
			// snapshot's can): the entry stays 0, as that peer's probe
			// would miss.
		case off >= columnMulti:
			return nil
		case multi:
			col[peer] = off | columnMulti
		default:
			col[peer] = off
		}
	}
	return col
}

// selectHolders decides, once per flood, which peers are worth a match
// probe. It orders qids by holder-list length — the probe order of every
// per-peer match, rarest first, unknown terms before all — and, when the
// rarest list is sparse, stamps the rarest term's holders into c.cand with
// the flood's epoch and reports true: only stamped peers can match. A query
// carrying NoTerm stamps no holder, since no listed peer holds a term the
// shared dictionary lacks. It reports false when there is no holder index
// or the rarest list — and so every list — is dense; the flood then
// answers at every reached peer, and c.cols holds the query terms' offset
// columns when they could be had, or nothing, when each reached peer's
// index must be probed.
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
		if h.dense(qids[0], len(c.seen)) {
			c.cols = h.cols.columns(c.nw, qids, c.cols)
			return false
		}
		list = h.list(qids[0])
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
