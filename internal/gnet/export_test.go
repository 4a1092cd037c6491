package gnet

import (
	"fmt"
	"slices"
	"strings"

	"querycentric/internal/dict"
)

// This file lends the external test package (gnet_test, which may import
// internal/snapshot, a package that imports this one) the few internals its
// offset-column tests read.

// DenseTerms lists the network's dense terms — holder lists longer than
// len(peers)/holderDenseShare bytes, as selectHolders judges them — in
// term-ID order; nil when there is no holder index.
func DenseTerms(nw *Network) []string {
	h := &nw.holders
	if h.off == nil {
		return nil
	}
	var out []string
	for t := 0; t+1 < len(h.off); t++ {
		if h.dense(dict.TermID(t), len(nw.Peers)) {
			out = append(out, nw.dict.Term(dict.TermID(t)))
		}
	}
	return out
}

// CheckDenseColumns builds the offset column of every dense term and holds
// it to lookup at every peer: the column has an entry exactly when lookup
// finds the term, and the postings read through the entry equal lookup's —
// count, single posting and body bytes — and decode to the same values.
func CheckDenseColumns(nw *Network) error {
	for _, term := range DenseTerms(nw) {
		id, _ := nw.dict.Lookup(term)
		cols := nw.holders.cols.columns(nw, []dict.TermID{id}, nil)
		if len(cols) != 1 {
			return fmt.Errorf("dense term %q has no usable column", term)
		}
		col := cols[0]
		if len(col) != len(nw.Peers) {
			return fmt.Errorf("column of %q has %d entries for %d peers", term, len(col), len(nw.Peers))
		}
		for i, p := range nw.Peers {
			want, found := p.idx.lookup(id)
			e := col[i]
			if (e != 0) != found {
				return fmt.Errorf("peer %d, term %q: column entry %#x, lookup found=%v", i, term, e, found)
			}
			if !found {
				continue
			}
			got := p.idx.payload(e&^columnMulti, e&columnMulti != 0)
			if got.count != want.count || got.single != want.single || string(got.body) != string(want.body) {
				return fmt.Errorf("peer %d, term %q: column reads %+v, lookup %+v", i, term, got, want)
			}
			if a, b := decodeRef(got), decodeRef(want); fmt.Sprint(a) != fmt.Sprint(b) {
				return fmt.Errorf("peer %d, term %q: column postings %v, lookup %v", i, term, a, b)
			}
		}
	}
	return nil
}

// decodeRef decodes every posting a ref names.
func decodeRef(r postingsRef) []int32 {
	var out []int32
	c := r.cursor()
	for {
		v, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// DenseQuery joins the network's two densest terms (the longest holder
// lists, ties to the lower term ID) into a query whose every term is dense.
func DenseQuery(nw *Network) string {
	d := DenseTerms(nw)
	size := func(term string) int {
		id, _ := nw.dict.Lookup(term)
		return len(nw.holders.list(id))
	}
	slices.SortStableFunc(d, func(a, b string) int { return size(b) - size(a) })
	return strings.Join(d[:min(2, len(d))], " ")
}

// FloodColumns returns the offset columns the context's last flood read:
// empty unless that flood was all-dense.
func (c *FloodCtx) FloodColumns() [][]uint32 { return c.cols }

// BuiltColumns returns the columns the network's holder index holds, by
// term (nil when there is no holder index).
func BuiltColumns(nw *Network) map[string][]uint32 {
	if nw.holders.cols == nil {
		return nil
	}
	nw.holders.cols.mu.Lock()
	defer nw.holders.cols.mu.Unlock()
	out := map[string][]uint32{}
	for t, col := range nw.holders.cols.col {
		out[nw.dict.Term(t)] = col
	}
	return out
}
