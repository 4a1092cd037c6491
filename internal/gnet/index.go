package gnet

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/bits"
	"slices"

	"querycentric/internal/dict"
	"querycentric/internal/parallel"
	"querycentric/internal/terms"
	"querycentric/internal/vpost"
)

// This file implements the interned-ID query path: per-peer posting indexes
// keyed by dict.TermID instead of strings. A peer's index is one
// IndexState — a skip array of every postingBlockLen-th term ID plus one
// delta-encoded byte arena holding term-ID gaps and posting lists — held in
// memory exactly as a snapshot persists it, so export and restore hand the
// same value across. One encoder, IndexBuilder, writes every index: the
// network's own build (intern), AddFile and the sharded snapshot builder.
// Lookups binary-search the skip array and scan at most one block (locate),
// then read the payload found there (payload) — the two halves the offset
// columns of dense terms (holders.go) are built from and read through.
// Intersections (intersect, intersectRef) decode the rarest list into
// scratch and walk every longer list in place, with the one-byte gap
// decoded inline and every other gap taken through vpost.Next, the checked
// step vpost.Cursor is built on; the Cursor stays the reference decoder
// (IndexChecksum reads every index through it).

// postingBlockLen is how many terms share one skip-array entry. Smaller
// blocks cost more skip-array memory (8 bytes per block) but shorten the
// in-block scan on the match hot path.
const postingBlockLen = 16

// IndexState is a peer's compact term → files index, exactly as held in
// memory and as a snapshot persists it. Terms are grouped into blocks of
// postingBlockLen in ascending TermID order; BlockFirst[b] is block b's
// first term ID and BlockOff[b] its byte offset into Arena.
//
// Each block splits its term-ID stream from its posting payloads so the
// hot miss path never touches payload bytes:
//
//	[idLen u8] [multiMask u16le] [id deltas] [payloads]
//
// The id section holds uvarint gaps between consecutive term IDs for
// entries 1..n-1 (entry 0's ID is BlockFirst[b], kept out of the arena);
// idLen is its byte length. Bit k of multiMask marks entry k as holding
// more than one posting. A single-posting payload is one uvarint (the
// posting itself — identical bytes to a one-element vpost body); a multi
// payload is uvarint(count≥2) followed by the vpost body.
type IndexState struct {
	NTerms     int
	NPostings  int
	BlockFirst []dict.TermID
	BlockOff   []uint32
	Arena      []byte
}

// blockHeaderLen is the fixed per-block prefix: idLen byte + multiMask.
const blockHeaderLen = 3

// postingsRef is one term's posting list as found in the arena: a count
// plus either the inline single posting or the undecoded body bytes.
type postingsRef struct {
	count  int
	single int32  // the posting when count == 1
	body   []byte // vpost body when count > 1 (suffix of the arena)
}

// cursor returns a streaming decoder over the referenced posting list.
func (r postingsRef) cursor() vpost.Cursor {
	if r.count == 1 {
		var one [vpost.MaxUvarintLen]byte
		return vpost.NewCursor(vpost.AppendUvarint(one[:0], uint64(uint32(r.single))), 1)
	}
	return vpost.NewCursor(r.body, r.count)
}

// lookup finds id's posting list: locate's block walk, then payload's read.
// An absent id (NoTerm included: it sorts past every stored term) misses;
// the conjunctive match rule turns a miss into an empty result after this
// single probe. Floods put the network's holder index in front of this
// call (see holders.go), so it runs once per (candidate peer, query term)
// of a flood whose rarest term is sparse; a flood whose every term is
// dense reads the postings through the terms' offset columns instead, and
// only a network without a holder index probes every reached peer here.
func (ix *IndexState) lookup(id dict.TermID) (postingsRef, bool) {
	off, multi, ok := ix.locate(id)
	if !ok {
		return postingsRef{}, false
	}
	return ix.payload(off, multi), true
}

// locate is the one block walk: binary search for the block that could
// hold id, then an early-exit scan of the block's id-delta section — no
// payload byte is touched unless the term is present. On a hit it skips
// the block's earlier payloads and returns the arena offset of id's
// payload (never 0: every block opens with its header) and whether the
// payload holds more than one posting. The varint decodes stay inlined:
// this is the per-probe hot path.
func (ix *IndexState) locate(id dict.TermID) (off uint32, multi bool, ok bool) {
	first := ix.BlockFirst
	if len(first) == 0 || id < first[0] {
		return 0, false, false
	}
	// Branchless-ish manual binary search for the last block with
	// blockFirst ≤ id (sort.Search costs a closure call per probe).
	lo, hi := 0, len(first)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if first[mid] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b := lo - 1
	n := ix.NTerms - b*postingBlockLen
	if n > postingBlockLen {
		n = postingBlockLen
	}
	buf := ix.Arena[ix.BlockOff[b]:]
	idLen := int(buf[0])
	mask := uint(buf[1]) | uint(buf[2])<<8
	ids := buf[blockHeaderLen : blockHeaderLen+idLen]
	cur := first[b]
	k, i := 0, 0
	for cur < id {
		if k+1 >= n {
			return 0, false, false
		}
		// Term-ID gaps are one or two bytes in practice; decode those
		// without the general continuation loop.
		c := ids[i]
		i++
		d := uint32(c)
		if c >= 0x80 {
			c = ids[i]
			i++
			d = d&0x7f | uint32(c)<<7
			if c >= 0x80 {
				d &= 1<<14 - 1
				for s := 14; c >= 0x80; s += 7 {
					c = ids[i]
					i++
					d |= uint32(c&0x7f) << s
				}
			}
		}
		cur += dict.TermID(d)
		k++
	}
	if cur != id {
		return 0, false, false
	}
	// Hit: skip the k preceding payloads to reach ours.
	p := buf[blockHeaderLen+idLen:]
	for j := 0; j < k; j++ {
		skip := 1
		if mask&(1<<uint(j)) != 0 {
			cnt, cn := vpost.Uvarint(p)
			p = p[cn:]
			skip = int(cnt)
		}
		for ; skip > 0; skip-- {
			o := 0
			for p[o] >= 0x80 {
				o++
			}
			p = p[o+1:]
		}
	}
	return uint32(len(ix.Arena) - len(p)), mask&(1<<uint(k)) != 0, true
}

// payload reads the posting list whose payload starts at arena offset off
// (as locate found it): one inline posting, or a count and the undecoded
// vpost body when multi.
func (ix *IndexState) payload(off uint32, multi bool) postingsRef {
	p := ix.Arena[off:]
	if !multi {
		v, _ := vpost.Uvarint(p)
		return postingsRef{count: 1, single: int32(v)}
	}
	cnt, cn := vpost.Uvarint(p)
	return postingsRef{count: int(cnt), body: p[cn:]}
}

// forEach calls fn for every term in ascending TermID order. The ref's body
// aliases the arena and must not be retained past the call.
func (ix *IndexState) forEach(fn func(id dict.TermID, ref postingsRef)) {
	for b := range ix.BlockFirst {
		n := ix.NTerms - b*postingBlockLen
		if n > postingBlockLen {
			n = postingBlockLen
		}
		buf := ix.Arena[ix.BlockOff[b]:]
		idLen := int(buf[0])
		mask := uint(buf[1]) | uint(buf[2])<<8
		ids := buf[blockHeaderLen : blockHeaderLen+idLen]
		p := buf[blockHeaderLen+idLen:]
		cur := ix.BlockFirst[b]
		for k := 0; k < n; k++ {
			if k > 0 {
				d, dn := vpost.Uvarint(ids)
				ids = ids[dn:]
				cur += dict.TermID(d)
			}
			if mask&(1<<uint(k)) == 0 {
				v, vn := vpost.Uvarint(p)
				p = p[vn:]
				fn(cur, postingsRef{count: 1, single: int32(v)})
				continue
			}
			cnt, cn := vpost.Uvarint(p)
			p = p[cn:]
			fn(cur, postingsRef{count: int(cnt), body: p})
			for j := uint64(0); j < cnt; j++ {
				p = p[vpost.SkipUvarint(p):]
			}
		}
	}
}

// blockTermIDs decodes posting block b's term IDs into block and returns
// them, reading only the block's id-delta section.
func (ix *IndexState) blockTermIDs(b int, block *[postingBlockLen]dict.TermID) []dict.TermID {
	buf := ix.Arena[ix.BlockOff[b]:]
	deltas := buf[blockHeaderLen : blockHeaderLen+int(buf[0])]
	cur := ix.BlockFirst[b]
	block[0] = cur
	n := 1
	for i := 0; i < len(deltas); n++ {
		// Gaps are one or two bytes in practice, as in lookup.
		c := deltas[i]
		i++
		d := uint32(c & 0x7f)
		for s := 7; c >= 0x80; s += 7 {
			c = deltas[i]
			i++
			d |= uint32(c&0x7f) << s
		}
		cur += dict.TermID(d)
		block[n] = cur
	}
	return block[:n]
}

// heapBytes is the index's retained heap (skip arrays + arena; the term
// strings live in the shared dictionary).
func (ix *IndexState) heapBytes() uint64 {
	return uint64(len(ix.BlockFirst))*4 + uint64(len(ix.BlockOff))*4 + uint64(len(ix.Arena))
}

// IndexBuilder is the one posting-index encoder: it builds per-peer
// indexes from libraries already resolved to term IDs, for the network's
// own build (intern), AddFile and the sharded snapshot builder, which
// interns every name once as it streams and indexes peers without ever
// assembling a Network. Its buffers are construction scratch: the (term,
// file) keys, the radix sort's second buffer and counters, and the encode
// buffers exist only for the peer being built, then the exact-size
// compressed arrays are cut from them, so building never holds more than
// one builder's worth of uncompressed intermediate per worker. A warmed
// builder's Build allocates only those three exact-size arrays. The zero
// value is ready; reuse one builder per worker so the scratch amortizes
// across thousands of peers. Not safe for concurrent use.
type IndexBuilder struct {
	keys  []uint64
	tmp   []uint64
	count [1 << radixBits]uint32
	arena []byte
	pay   []byte
	first []dict.TermID
	off   []uint32
}

// radixBits is the width of one radix digit over a key's term bits: the
// 2^11 counters fit in L1, and two passes order every term ID below 2^22
// (a TermID needs at most three). radixMinKeys is the library size below
// which a comparison sort beats clearing and summing the counters.
const (
	radixBits    = 11
	radixMinKeys = 256
)

// Build encodes the posting index of a library resolved to term IDs
// (dict.Resolved.Library, or a dict.Interner's output): file i holds the
// terms remap[id] for id in ids[off[i]:off[i+1]], each once. Each incidence
// becomes one packed uint64(term)<<32 | file key. The keys are appended in
// file order, so ordering them stably by term alone orders the postings by
// term and every posting list ascending: a least-significant-digit radix
// sort over the term bits does that in one or two passes over a typical
// library.
func (b *IndexBuilder) Build(ids []dict.TermID, off []uint32, remap []dict.TermID) IndexState {
	keys := b.keys[:0]
	var maxTerm dict.TermID
	for f := 0; f+1 < len(off); f++ {
		for _, id := range ids[off[f]:off[f+1]] {
			t := remap[id]
			maxTerm = max(maxTerm, t)
			keys = append(keys, uint64(t)<<32|uint64(f))
		}
	}
	b.keys = keys
	return b.encode(b.sortByTerm(keys, maxTerm))
}

// sortByTerm orders keys appended in file order by (term, file), using the
// builder's second buffer and counters, and returns the buffer holding the
// result (the builder keeps both for the next peer). A pass in which every
// key has the same digit moves nothing and is skipped.
func (b *IndexBuilder) sortByTerm(keys []uint64, maxTerm dict.TermID) []uint64 {
	if len(keys) < radixMinKeys {
		slices.Sort(keys) // keys are distinct, so the full order is the same
		return keys
	}
	tmp := slices.Grow(b.tmp[:0], len(keys))[:len(keys)]
	count := &b.count
	const mask = 1<<radixBits - 1
	for shift := uint(32); shift < 32+uint(bits.Len32(uint32(maxTerm))); shift += radixBits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		if count[keys[0]>>shift&mask] == uint32(len(keys)) {
			continue
		}
		sum := uint32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & mask
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	b.keys, b.tmp = keys, tmp
	return keys
}

// encode compresses sorted (term, file) keys into an index, encoding
// through the builder's buffers and returning exact-size copies so no
// append slack is retained for the life of the network. Blocks are
// assembled one at a time — the id-delta section in a fixed local buffer,
// the payload section in the reusable pay scratch — then flushed with
// their header once full.
func (b *IndexBuilder) encode(keys []uint64) IndexState {
	arena, first, off := b.arena[:0], b.first[:0], b.off[:0]
	var ix IndexState
	ix.NPostings = len(keys)

	var idBuf [postingBlockLen * 5]byte // ≤ 15 deltas × max 5-byte uvarint
	idLen := 0
	pay := b.pay[:0]
	var mask uint
	prevID := dict.TermID(0)
	flush := func() {
		arena = append(arena, byte(idLen), byte(mask), byte(mask>>8))
		arena = append(arena, idBuf[:idLen]...)
		arena = append(arena, pay...)
		idLen, pay, mask = 0, pay[:0], 0
	}
	for k := 0; k < len(keys); {
		id := dict.TermID(keys[k] >> 32)
		j := k + 1
		for j < len(keys) && dict.TermID(keys[j]>>32) == id {
			j++
		}
		e := ix.NTerms % postingBlockLen
		if e == 0 {
			if ix.NTerms > 0 {
				flush()
			}
			first = append(first, id)
			off = append(off, uint32(len(arena)))
		} else {
			idLen = len(vpost.AppendUvarint(idBuf[:idLen], uint64(id-prevID)))
		}
		if j-k == 1 {
			pay = vpost.AppendUvarint(pay, uint64(uint32(keys[k])))
		} else {
			mask |= 1 << uint(e)
			pay = vpost.AppendUvarint(pay, uint64(j-k))
			prev := int32(-1)
			for i := k; i < j; i++ {
				file := int32(uint32(keys[i]))
				pay = vpost.AppendUvarint(pay, uint64(uint32(file-prev-1)))
				prev = file
			}
		}
		prevID = id
		ix.NTerms++
		k = j
	}
	if ix.NTerms > 0 {
		flush()
	}
	b.arena, b.pay, b.first, b.off = arena, pay, first, off
	if len(arena) > 0 {
		ix.Arena = append(make([]byte, 0, len(arena)), arena...)
		ix.BlockFirst = append(make([]dict.TermID, 0, len(first)), first...)
		ix.BlockOff = append(make([]uint32, 0, len(off)), off...)
	}
	return ix
}

// ErrNotIndexed is returned by a flood over a network that has no
// dictionary yet: one assembled by hand (New plus libraries) on which
// BuildIndexes — or EnableQRP, which calls it — never ran.
var ErrNotIndexed = errors.New("gnet: network not indexed (call BuildIndexes first)")

// intern gives the network its one dictionary and every peer its posting
// index: dict.Build resolves every file name to its term IDs (one
// tokenization per placement), and each peer's index is encoded from those
// IDs over up to `workers` goroutines before they are dropped. names[p]
// holds peer p's file names in library order. Any previous dictionary and
// every index built over it are replaced, and the holder index is dropped.
func (nw *Network) intern(names [][]string, workers int) error {
	d, res := dict.Build(names, workers)
	err := parallel.ForEachWith(workers, len(nw.Peers), func() *IndexBuilder { return new(IndexBuilder) },
		func(b *IndexBuilder, i int) error {
			p := nw.Peers[i]
			p.dict, p.idx = d, b.Build(res.Library(i))
			return nil
		})
	if err != nil {
		return err
	}
	nw.dict, nw.holders = d, holderIndex{}
	return nil
}

// libraryNames lists every peer's file names in library order, as intern
// takes them.
func (nw *Network) libraryNames() [][]string {
	names := make([][]string, len(nw.Peers))
	for i, p := range nw.Peers {
		names[i] = make([]string, len(p.Library))
		for j, f := range p.Library {
			names[i][j] = f.Name
		}
	}
	return names
}

// BuildIndexes indexes the network over up to `workers` goroutines (≤ 0
// resolves to GOMAXPROCS). A hand-assembled network is interned first; a
// network built from a catalog or restored from a snapshot is born with its
// posting indexes. Then, unless it is in place, the network-wide holder
// index floods consult before probing any peer is built (holders.go):
// floods over a network without one probe every peer they reach, so
// building it up front makes construction cost measurable and keeps floods
// off the slow path. The result is identical for every worker count: each
// peer's index depends only on its own library and the dictionary, and
// each term's holder list only on which peers hold it. The dictionary
// needs no finishing step: it answers query tokens by binary search from
// the moment it is built.
func (nw *Network) BuildIndexes(workers int) error {
	if nw.dict == nil {
		if err := nw.intern(nw.libraryNames(), workers); err != nil {
			return err
		}
	}
	return nw.buildHolders(workers)
}

// TermDict returns the network's interned dictionary (nil until a
// hand-assembled network is indexed).
func (nw *Network) TermDict() *dict.Dict { return nw.dict }

// Match returns the library files matching the query criteria under the
// Gnutella keyword rule (every query token must appear in the file name).
// It returns nil before the peer's network is indexed (BuildIndexes).
func (p *Peer) Match(criteria string) []File {
	toks := TokenizeQuery(criteria)
	if len(toks) == 0 || p.dict == nil {
		return nil
	}
	// Stack-sized scratch: real queries are a handful of terms, so the
	// one-shot Match path avoids the flood context's reusable buffers
	// without paying a heap allocation per call.
	var idsBuf [8]dict.TermID
	var s matchScratch
	ids, ok := p.dict.Resolve(toks, idsBuf[:0])
	if !ok {
		return nil
	}
	return p.files(p.matchIDs(ids, &s))
}

// MatchTokens is Match with tokenization hoisted out: toks must come from
// TokenizeQuery. scratch is returned untouched; the interned path needs no
// string scratch. This is the per-peer probe on its own — term resolution,
// index lookups, hit assembly — which floods make only for the peers the
// holder index names (through matchIDs, on hoisted IDs and scratch). Like
// Match, it returns nil before the network is indexed.
func (p *Peer) MatchTokens(toks, scratch []string) ([]File, []string) {
	if len(toks) == 0 || p.dict == nil {
		return nil, scratch
	}
	ids, ok := p.dict.Resolve(toks, nil)
	if !ok {
		return nil, scratch
	}
	var s matchScratch
	return p.files(p.matchIDs(ids, &s)), scratch
}

// files copies the library entries at the given indexes (nil for none).
func (p *Peer) files(idx []int32) []File {
	if len(idx) == 0 {
		return nil
	}
	out := make([]File, len(idx))
	for i, fi := range idx {
		out[i] = p.Library[fi]
	}
	return out
}

// matchScratch is per-flood match state, reused across every reached peer:
// the per-term refs being sorted, the decode buffer the rarest posting
// list lands in, and decoded, the running count of postings the
// intersections through it have read (the flood publishes it as
// gnet_flood_postings_total).
type matchScratch struct {
	sel     []postingsRef
	post    []int32
	decoded int
}

// matchIDs intersects the posting lists of ids, rarest term first so the
// candidate set never grows. The result is the matching files' library
// indexes, ascending, in s's reusable buffer: valid until the next match
// through s. Any id missing from the index (including
// NoTerm) matches nothing — the conjunctive rule. Only the rarest list is
// decoded (into the reusable scratch, which the returned library indexes
// alias); the rest are walked in place.
func (p *Peer) matchIDs(ids []dict.TermID, s *matchScratch) []int32 {
	if len(ids) == 0 {
		return nil
	}
	s.sel = s.sel[:0]
	for _, id := range ids {
		ref, ok := p.idx.lookup(id)
		if !ok {
			return nil
		}
		s.sel = append(s.sel, ref)
	}
	return s.intersect()
}

// maxInlinePrev is the largest posting a one-byte gap may follow on the
// inline decode path: past it, prev+1+gap could exceed MaxInt32, and the
// checked step (vpost.Next) decides.
const maxInlinePrev = math.MaxInt32 - 0x80

// intersect intersects the posting lists in s.sel, one per query term,
// rarest first so the candidate set never grows; the result aliases s.post
// as matchIDs describes.
//
// This and intersectRef are the match path's posting kernel. Both read the
// network's own arenas, where nearly every gap is one byte, so each decodes
// a one-byte gap inline in its loop (a call per posting costs more than
// the decode) and takes every other gap — multi-byte, truncated, or
// carrying the posting past MaxInt32 — through vpost.Next, the step
// vpost.Cursor is built on. A damaged body therefore stops both exactly
// where a Cursor over it stops.
func (s *matchScratch) intersect() []int32 {
	sel := s.sel
	// Insertion sort by posting-list length: queries have a handful of
	// terms.
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].count < sel[j-1].count; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	cur := s.post[:0]
	if sel[0].count == 1 {
		cur = append(cur, sel[0].single)
	} else {
		body, i, prev := sel[0].body, 0, int32(-1)
		for left := sel[0].count; left > 0; left-- {
			if i < len(body) && body[i] < 0x80 && prev <= maxInlinePrev {
				prev += 1 + int32(body[i])
				i++
			} else {
				v, n := vpost.Next(body[i:], prev)
				if n == 0 {
					break
				}
				prev, i = v, i+n
			}
			cur = append(cur, prev)
		}
	}
	s.post = cur[:0] // retain the (possibly grown) buffer for the next peer
	decoded := len(cur)
	for _, w := range sel[1:] {
		if len(cur) == 0 {
			break
		}
		var n int
		cur, n = intersectRef(cur, w)
		decoded += n
	}
	s.decoded += decoded
	return cur
}

// intersectRef intersects the ascending, non-empty candidate list cur with
// w's postings in place and reports how many of w's postings it decoded:
// survivors are written back into cur's prefix (the write index never
// passes the read index, and the arena is never mutated). The walk stops
// when cur runs out, when w does, or at a gap vpost.Next refuses.
func intersectRef(cur []int32, w postingsRef) ([]int32, int) {
	if w.count == 1 {
		for _, v := range cur {
			if v == w.single {
				cur[0] = v
				return cur[:1], 1
			}
			if v > w.single {
				break
			}
		}
		return cur[:0], 1
	}
	out := cur[:0]
	body, j, v := w.body, 0, int32(-1)
	i, left := 0, w.count
	for left > 0 {
		if j < len(body) && body[j] < 0x80 && v <= maxInlinePrev {
			v += 1 + int32(body[j])
			j++
		} else {
			next, n := vpost.Next(body[j:], v)
			if n == 0 {
				break
			}
			v, j = next, j+n
		}
		left--
		for cur[i] < v {
			if i++; i == len(cur) {
				return out, w.count - left
			}
		}
		if cur[i] == v {
			out = append(out, v)
			if i++; i == len(cur) {
				break
			}
		}
	}
	return out, w.count - left
}

// smallQueryDedupe is the token count below which TokenizeQuery dedupes
// with a quadratic scan instead of allocating a map — real queries are a
// few keywords, and the scan beats the map allocation there.
const smallQueryDedupe = 12

// TokenizeQuery returns the deduped keyword list the match path intersects,
// in first-appearance order. Hoist it out of any loop that matches one
// query against many peers (a flood matches every reached peer).
func TokenizeQuery(criteria string) []string {
	toks := terms.Tokenize(criteria)
	if len(toks) < 2 {
		return toks
	}
	if len(toks) <= smallQueryDedupe {
		return dedupeLinear(toks)
	}
	return dedupeMap(toks)
}

// dedupeLinear dedupes in place by scanning the kept prefix; first
// appearance wins.
func dedupeLinear(toks []string) []string {
	uniq := toks[:1]
	for _, t := range toks[1:] {
		dup := false
		for _, u := range uniq {
			if t == u {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, t)
		}
	}
	return uniq
}

// dedupeMap dedupes with a set; first appearance wins.
func dedupeMap(toks []string) []string {
	uniq := toks[:0]
	seen := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			uniq = append(uniq, t)
		}
	}
	return uniq
}

// IndexStats summarizes the network's term-index footprint.
type IndexStats struct {
	Peers      int    // peers in the network
	DictTerms  int    // distinct terms in the network's dictionary
	IndexTerms int    // total distinct (peer, term) pairs
	Postings   int    // total posting entries across all peers
	HeapBytes  uint64 // estimated retained bytes: peer indexes + holder index + shared dictionary
	ArenaBytes uint64 // compressed posting-arena bytes (skip arrays + varint arenas)
}

// IndexStats indexes the network (BuildIndexes over GOMAXPROCS workers)
// and returns the indexes' footprint.
func (nw *Network) IndexStats() (IndexStats, error) {
	if err := nw.BuildIndexes(0); err != nil {
		return IndexStats{}, err
	}
	st := IndexStats{
		Peers:     len(nw.Peers),
		DictTerms: nw.dict.Len(),
		HeapBytes: nw.dict.HeapBytes() + nw.holders.heapBytes(),
	}
	for _, p := range nw.Peers {
		st.IndexTerms += p.idx.NTerms
		st.Postings += p.idx.NPostings
		st.HeapBytes += p.idx.heapBytes()
		st.ArenaBytes += p.idx.heapBytes()
	}
	return st, nil
}

// IndexChecksum builds all indexes and folds the dictionary plus every
// peer's decoded index — term IDs, counts, posting values, independent of
// the arena representation — into one FNV-1a fingerprint: the worker-count
// determinism gate for parallel construction and the snapshot round-trip
// gate for persistence.
func (nw *Network) IndexChecksum() (uint64, error) {
	if err := nw.BuildIndexes(0); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(nw.dict.Checksum())
	put(uint64(nw.dict.Len()))
	for _, p := range nw.Peers {
		put(uint64(p.idx.NTerms))
		p.idx.forEach(func(id dict.TermID, ref postingsRef) {
			put(uint64(id))
			put(uint64(ref.count))
			c := ref.cursor()
			for {
				v, ok := c.Next()
				if !ok {
					break
				}
				put(uint64(uint32(v)))
			}
		})
	}
	return h.Sum64(), nil
}
