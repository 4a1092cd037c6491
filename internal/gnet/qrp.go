package gnet

import (
	"querycentric/internal/dict"
	"querycentric/internal/qrp"
	"querycentric/internal/terms"
)

// qrpMatrix holds every query-route table a network's relays keep, as one
// slot-major bit matrix. The peers that push a table (the leaves of a
// two-tier network, every peer of a flat one) are numbered in peer order;
// holder o's table marks slot s when bit o of row s is set, and row s is
// rows[s*words : (s+1)*words]. A flood ANDs its query's rows into one pass
// mask (pass), so the per-edge routing test reads one bit of that mask
// instead of a separate table per leaf. The matrix holds the bits the
// leaves' own tables would, padded only to a multiple of 64 holders.
type qrpMatrix struct {
	bits  uint
	words int      // words per row: one bit per holder
	ord   []int32  // ord[p] is peer p's holder number, -1 if it pushed no table
	rows  []uint64 // (1 << bits) rows of words words
}

// set marks slot in holder o's table.
func (q *qrpMatrix) set(slot uint32, o int32) {
	q.rows[int(slot)*q.words+int(o>>6)] |= 1 << (o & 63)
}

// addName marks every keyword of a shared file name in holder o's table,
// as a leaf re-sending a grown table would.
func (q *qrpMatrix) addName(name string, o int32) {
	for _, tok := range terms.Tokenize(name) {
		q.set(qrp.Hash(tok, q.bits), o)
	}
}

// pass writes into mask, reusing its storage, the holders whose tables hit
// every slot in hs: the AND of those slots' rows. An empty hs (a
// keywordless query) passes no holder.
func (q *qrpMatrix) pass(mask []uint64, hs []uint32) []uint64 {
	if cap(mask) < q.words {
		mask = make([]uint64, q.words)
	}
	mask = mask[:q.words]
	if len(hs) == 0 {
		clear(mask)
		return mask
	}
	s := int(hs[0]) * q.words
	copy(mask, q.rows[s:s+q.words])
	for _, h := range hs[1:] {
		s := int(h) * q.words
		for i, w := range q.rows[s : s+q.words] {
			mask[i] &= w
		}
	}
	return mask
}

// EnableQRP builds a QRP table for every leaf from its shared library, as
// deployed leaves push to their ultrapeers. Floods then apply last-hop
// filtering: an ultrapeer forwards a query to a leaf only if every query
// keyword hits the leaf's table. Only meaningful on two-tier topologies.
//
// It indexes the network first (BuildIndexes) and marks each table from
// the term IDs of the leaf's posting index (its payloads are never read):
// one precomputed hash per distinct library term, instead of re-tokenizing
// and re-hashing every file name. The marked slots are those a table built
// by tokenizing and hashing every file name would mark (duplicate keyword
// occurrences map to the same slot). The tables are the columns of one bit
// matrix (qrpMatrix): the build allocates the matrix and one column of
// scratch, nothing per leaf. The build is serial.
func (nw *Network) EnableQRP(bits uint) error {
	if err := qrp.CheckBits(bits); err != nil {
		return err
	}
	if err := nw.BuildIndexes(0); err != nil {
		return err
	}
	q := &qrpMatrix{bits: bits, ord: make([]int32, len(nw.Peers))}
	holders := int32(0)
	for i, p := range nw.Peers {
		if p.Ultrapeer {
			q.ord[i] = -1
			continue
		}
		q.ord[i] = holders
		holders++
	}
	q.words = (int(holders) + 63) / 64
	q.rows = make([]uint64, q.words<<bits)
	// The matrix is filled one word column (64 holders) at a time: their
	// slots are marked in col, one word per slot, which stays in cache
	// where the matrix would not, and col is then written down the column
	// in row order.
	col := make([]uint64, 1<<bits)
	var block [postingBlockLen]dict.TermID
	for i, p := range nw.Peers {
		o := q.ord[i]
		if o < 0 {
			continue
		}
		for b := range p.idx.BlockFirst {
			for _, id := range p.idx.blockTermIDs(b, &block) {
				col[nw.dict.Slot(id, bits)] |= 1 << (o & 63)
			}
		}
		if o&63 == 63 || o == holders-1 {
			w := int(o >> 6)
			for s, x := range col {
				q.rows[s*q.words+w] = x
			}
			clear(col)
		}
	}
	nw.qrp = q
	return nil
}

// DisableQRP removes route tables (floods forward to every leaf again).
func (nw *Network) DisableQRP() { nw.qrp = nil }
