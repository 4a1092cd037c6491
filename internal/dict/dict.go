// Package dict implements the shared, immutable term dictionary that makes
// paper-scale keyword handling routine: every token that appears in any
// shared file name is interned once to a dense uint32 TermID, and all
// downstream structures — per-peer posting indexes, query resolution, QRP
// route tables — work on integer IDs instead of strings.
//
// The motivation is the paper's own measurement: its April 2007 crawl saw
// 1.22M distinct terms across 12.1M file placements, so per-peer
// map[string][]int32 term indexes repeat millions of string keys (each
// retaining a lowered copy of the file name it was sliced from). Interning
// stores each term exactly once, lets posting indexes collapse into flat
// arrays, and lets the QRP hash of every term be computed once per network
// instead of once per (peer, flood) — on the first Slot call, so a network
// that never builds a route table never pays for them.
//
// Construction tokenizes every file name once: an Interner resolves each
// name to the provisional IDs of its distinct tokens while it collects the
// vocabulary, and Merge turns the interners' sorted vocabularies into the
// dictionary plus the tables that translate provisional IDs to final ones.
// Build returns those resolved names beside the dictionary, so posting
// indexes are encoded from IDs without tokenizing or looking anything up
// again.
//
// Storage is a single byte arena plus offsets: term id's bytes are
// termBytes[termOff[id]:termOff[id+1]], and Term returns a zero-copy view
// into the arena. Lookup and Resolve binary-search the (lexicographically
// ordered) arena — a few string compares per query token, paid once per
// flood — for every dictionary alike, built, merged or restored by
// FromRaw. Construction never looks a token up here: it resolves names
// through the interners' own maps.
//
// Determinism: IDs are assigned in lexicographic term order, so the
// dictionary built from a given name multiset — and every name's final IDs
// — is identical regardless of how the build was sharded across workers.
package dict

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"querycentric/internal/parallel"
	"querycentric/internal/qrp"
	"querycentric/internal/terms"
)

// TermID is a dense dictionary index. IDs are contiguous in [0, Len()).
type TermID uint32

// NoTerm marks a token absent from the dictionary (a query term that
// appears in no shared file name — the paper's mismatch case).
const NoTerm TermID = ^TermID(0)

// Dict is an immutable interned term dictionary. Safe for concurrent use
// after Build returns (the first Slot calls may race each other: one builds
// the QRP products, the rest wait for it).
type Dict struct {
	termBytes []byte   // all term bytes, concatenated in ID order
	termOff   []uint32 // TermID → termBytes offset; Len()+1 entries
	workers   int      // goroutine bound for building prods
	// prods maps TermID → QRP hash product (pre-shift). It is nil until the
	// first Slot call builds it under prodsOnce; Slot's fast path is the
	// one atomic load.
	prods     atomic.Pointer[[]uint32]
	prodsOnce sync.Once
}

// Interner is one shard of a dictionary build. It resolves file names to
// provisional term IDs — dense, in order of first appearance, private to
// the interner — while it collects the vocabulary they index; Merge then
// turns any number of interners into the shared Dict plus, per interner, the
// table that translates its provisional IDs to final ones. AppendIDs is the
// one place construction tokenizes a name. Not safe for concurrent use.
type Interner struct {
	ids   map[string]TermID // token → provisional ID
	vocab []string          // provisional ID → token
	order []TermID          // provisional IDs in term order, once sorted
	buf   []byte            // terms.AppendTokens scratch
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{ids: map[string]TermID{}} }

// AppendIDs tokenizes name and appends the provisional IDs of its distinct
// tokens to dst, in first-appearance order. A name without tokens appends
// nothing.
func (in *Interner) AppendIDs(dst []TermID, name string) []TermID {
	in.buf = terms.AppendTokens(in.buf[:0], name)
	start := len(dst)
	for b := in.buf; len(b) > 0; {
		k := bytes.IndexByte(b, 0)
		id, ok := in.ids[string(b[:k])]
		if !ok {
			id = TermID(len(in.vocab))
			tok := string(b[:k])
			in.vocab = append(in.vocab, tok)
			in.ids[tok] = id
		}
		b = b[k+1:]
		// Names hold a handful of tokens, so a scan beats a set.
		if !slices.Contains(dst[start:], id) {
			dst = append(dst, id)
		}
	}
	return dst
}

// Vocab returns the tokens interned so far, indexed by provisional ID.
func (in *Interner) Vocab() []string { return in.vocab }

// sortVocab orders the provisional IDs by term, once.
func (in *Interner) sortVocab() {
	if len(in.order) == len(in.vocab) {
		return
	}
	in.order = make([]TermID, len(in.vocab))
	for i := range in.order {
		in.order[i] = TermID(i)
	}
	slices.SortFunc(in.order, func(a, b TermID) int { return strings.Compare(in.vocab[a], in.vocab[b]) })
}

// Merge finishes a build over interners: it k-way merges their sorted
// vocabularies into the dictionary of their union, IDs in lexicographic
// term order, and returns per interner the remap table from its
// provisional IDs to final ones. The dictionary depends only on the union,
// not on how names were split among interners.
func Merge(ins []*Interner, workers int) (*Dict, [][]TermID) {
	remaps := make([][]TermID, len(ins))
	pos := make([]int, len(ins))
	n := 0
	for s, in := range ins {
		in.sortVocab()
		remaps[s] = make([]TermID, len(in.vocab))
		n = max(n, len(in.vocab))
	}
	head := func(s int) (string, bool) {
		in := ins[s]
		if pos[s] == len(in.order) {
			return "", false
		}
		return in.vocab[in.order[pos[s]]], true
	}
	sorted := make([]string, 0, n) // the union in term order, views of the vocabularies
	for {
		best, tok := -1, ""
		for s := range ins {
			if t, ok := head(s); ok && (best < 0 || t < tok) {
				best, tok = s, t
			}
		}
		if best < 0 {
			break
		}
		id := TermID(len(sorted))
		sorted = append(sorted, tok)
		for s := best; s < len(ins); s++ {
			if t, ok := head(s); ok && t == tok {
				remaps[s][ins[s].order[pos[s]]] = id
				pos[s]++
			}
		}
	}
	return fromSorted(sorted, workers), remaps
}

// fromSorted lays strictly ascending terms out as a dictionary: arena and
// offsets (QRP products wait for the first Slot call). Only those are
// retained; sorted and the strings it views are the caller's transients.
func fromSorted(sorted []string, workers int) *Dict {
	total := 0
	for _, tok := range sorted {
		total += len(tok)
	}
	d := &Dict{
		termBytes: make([]byte, 0, total),
		termOff:   make([]uint32, 1, len(sorted)+1),
		workers:   workers,
	}
	for _, tok := range sorted {
		d.termBytes = append(d.termBytes, tok...)
		d.termOff = append(d.termOff, uint32(len(d.termBytes)))
	}
	return d
}

// Resolved is what Build resolved every file name to: per library, each
// file's distinct term IDs. It is a construction transient — the network
// builder encodes posting indexes from it and drops it.
type Resolved struct {
	bounds []int    // shard s interned libraries [bounds[s], bounds[s+1])
	first  []uint32 // library l's first file, as an index into its shard's off
	shards []resolvedShard
}

type resolvedShard struct {
	ids   []TermID // every file's distinct provisional IDs, concatenated
	off   []uint32 // file f's IDs are ids[off[f]:off[f+1]]
	remap []TermID // provisional ID → final ID
}

// Library returns library l's resolved files: file i (in library order)
// holds the final term IDs remap[id] for id in ids[off[i]:off[i+1]], each
// once; len(off) is one more than the library's file count.
func (r *Resolved) Library(l int) (ids []TermID, off []uint32, remap []TermID) {
	s := sort.SearchInts(r.bounds, l+1) - 1
	sh := &r.shards[s]
	end := len(sh.off) - 1
	if l+1 < r.bounds[s+1] {
		end = int(r.first[l+1])
	}
	return sh.ids, sh.off[r.first[l] : end+1], sh.remap
}

// Build interns every token of every name in libraries and resolves each
// name to its term IDs, tokenizing each name once. Contiguous library
// ranges are interned on up to `workers` goroutines (≤ 0 resolves to
// GOMAXPROCS), one interner each, and merged; the dictionary and the
// resolved IDs are identical for every worker count because final IDs
// follow sorted term order.
func Build(libraries [][]string, workers int) (*Dict, *Resolved) {
	workers = parallel.Workers(workers)
	shards := max(min(workers, len(libraries)), 1)
	r := &Resolved{
		bounds: make([]int, shards+1),
		first:  make([]uint32, len(libraries)),
		shards: make([]resolvedShard, shards),
	}
	for s := range r.bounds {
		r.bounds[s] = s * len(libraries) / shards
	}
	ins := make([]*Interner, shards)
	// Each worker interns its own range into private state, so no locking
	// and no ordering sensitivity.
	_ = parallel.ForEach(workers, shards, func(s int) error {
		in := NewInterner()
		var ids []TermID
		off := []uint32{0}
		for l := r.bounds[s]; l < r.bounds[s+1]; l++ {
			r.first[l] = uint32(len(off) - 1)
			for _, name := range libraries[l] {
				ids = in.AppendIDs(ids, name)
				off = append(off, uint32(len(ids)))
			}
		}
		in.sortVocab()
		ins[s] = in
		r.shards[s] = resolvedShard{ids: ids, off: off}
		return nil
	})
	d, remaps := Merge(ins, workers)
	for s, remap := range remaps {
		r.shards[s].remap = remap
	}
	return d, r
}

// hashProducts builds prods, once: the QRP hash product of every term, in
// parallel chunks over up to d.workers goroutines. Products are pure per
// term, so chunking cannot change the result. Callers racing the first
// build wait for it.
func (d *Dict) hashProducts() *[]uint32 {
	d.prodsOnce.Do(func() {
		prods := make([]uint32, d.Len())
		const chunk = 8192
		nChunks := (len(prods) + chunk - 1) / chunk
		_ = parallel.ForEach(d.workers, nChunks, func(c int) error {
			for i := c * chunk; i < min((c+1)*chunk, len(prods)); i++ {
				prods[i] = qrp.HashProduct(d.Term(TermID(i)))
			}
			return nil
		})
		d.prods.Store(&prods)
	})
	return d.prods.Load()
}

// Raw returns the dictionary's storage — the concatenated term arena and
// its Len()+1 offsets — for persistence. The slices are views of the live
// dictionary; treat them as immutable.
func (d *Dict) Raw() (termBytes []byte, termOff []uint32) {
	return d.termBytes, d.termOff
}

// FromRaw reconstructs a dictionary from a persisted arena: offsets are
// validated (monotone, bounded, terms in strict lexicographic order — the
// invariant binary-search Lookup depends on). The QRP hash products are
// not persisted; the first Slot call computes them in parallel chunks over
// up to `workers` goroutines. The result adopts the given slices without
// copying.
func FromRaw(termBytes []byte, termOff []uint32, workers int) (*Dict, error) {
	if len(termOff) == 0 {
		return nil, fmt.Errorf("dict: FromRaw: missing offset table")
	}
	if termOff[0] != 0 || termOff[len(termOff)-1] != uint32(len(termBytes)) {
		return nil, fmt.Errorf("dict: FromRaw: offsets span [%d,%d] over %d arena bytes",
			termOff[0], termOff[len(termOff)-1], len(termBytes))
	}
	d := &Dict{termBytes: termBytes, termOff: termOff, workers: workers}
	for i := 1; i < d.Len(); i++ {
		// Bounding each offset by the last keeps both terms compared below
		// inside the arena before the later offsets have been checked.
		if termOff[i] > termOff[i+1] || termOff[i+1] > termOff[d.Len()] {
			return nil, fmt.Errorf("dict: FromRaw: offsets not monotone at term %d", i)
		}
		if d.Term(TermID(i-1)) >= d.Term(TermID(i)) {
			return nil, fmt.Errorf("dict: FromRaw: terms out of order at %d", i)
		}
	}
	return d, nil
}

// Len returns the number of interned terms.
func (d *Dict) Len() int { return len(d.termOff) - 1 }

// Term returns the canonical string of id — a zero-copy view into the
// term arena (immutable, so safe to hold). It panics on out-of-range IDs
// (including NoTerm), like a slice index.
func (d *Dict) Term(id TermID) string {
	lo, hi := d.termOff[id], d.termOff[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&d.termBytes[lo], int(hi-lo))
}

// Lookup resolves one token by binary search over the arena (terms are
// stored in lexicographic order).
func (d *Dict) Lookup(tok string) (TermID, bool) {
	lo, hi := 0, d.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.Term(TermID(mid)) < tok {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < d.Len() && d.Term(TermID(lo)) == tok {
		return TermID(lo), true
	}
	return NoTerm, false
}

// Resolve maps toks to TermIDs, appending to dst (pass dst[:0] to reuse a
// scratch slice). Unknown tokens resolve to NoTerm; ok reports whether
// every token was known. A conjunctive query with any unknown term can
// match nothing anywhere, so callers short-circuit on !ok.
func (d *Dict) Resolve(toks []string, dst []TermID) (ids []TermID, ok bool) {
	ok = true
	for _, tok := range toks {
		id, known := d.Lookup(tok)
		if !known {
			id = NoTerm
			ok = false
		}
		dst = append(dst, id)
	}
	return dst, ok
}

// Slot returns id's QRP table slot at the given table width. The first
// call builds every term's hash product (see hashProducts).
func (d *Dict) Slot(id TermID, bits uint) uint32 {
	p := d.prods.Load()
	if p == nil {
		p = d.hashProducts()
	}
	return qrp.SlotOf((*p)[id], bits)
}

// HeapBytes is the dictionary's retained heap: the term arena, offsets
// and QRP products once a Slot call has built them.
func (d *Dict) HeapBytes() uint64 {
	b := uint64(len(d.termBytes))
	b += uint64(len(d.termOff)) * 4
	if p := d.prods.Load(); p != nil {
		b += uint64(len(*p)) * 4
	}
	return b
}

// Checksum folds the dictionary into a 64-bit FNV-1a fingerprint (for
// worker-count determinism gates). The value depends only on the term
// sequence, not on storage layout.
func (d *Dict) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := d.Len()
	for i := 0; i < n; i++ {
		t := d.Term(TermID(i))
		for j := 0; j < len(t); j++ {
			h = (h ^ uint64(t[j])) * prime64
		}
		h = (h ^ 0xff) * prime64
	}
	return h
}

// String describes the dictionary (diagnostics).
func (d *Dict) String() string {
	return fmt.Sprintf("dict{%d terms, ~%d KiB}", d.Len(), d.HeapBytes()/1024)
}
