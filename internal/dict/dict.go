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
// instead of once per (peer, flood).
//
// Storage is a single byte arena plus offsets: term id's bytes are
// termBytes[termOff[id]:termOff[id+1]], and Term returns a zero-copy view
// into the arena. A map accelerates token→ID lookups while indexes are
// being built; Compact drops it once construction ends, leaving binary
// search over the (lexicographically ordered) arena — a few string
// compares per query token, paid once per flood.
//
// Determinism: IDs are assigned in lexicographic term order, so the
// dictionary built from a given name multiset is identical regardless of
// how the build was sharded across workers.
package dict

import (
	"fmt"
	"sort"
	"strings"
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
// after Build returns; Compact must not race with lookups.
type Dict struct {
	termBytes []byte            // all term bytes, concatenated in ID order
	termOff   []uint32          // TermID → termBytes offset; Len()+1 entries
	ids       map[string]TermID // construction-phase lookup; nil after Compact
	prods     []uint32          // TermID → QRP hash product (pre-shift)
}

// Build interns every token of every name in libraries. Tokenization fans
// out over up to `workers` goroutines (≤ 0 resolves to GOMAXPROCS); the
// result is byte-identical for every worker count because IDs are assigned
// in sorted term order after the shards merge.
func Build(libraries [][]string, workers int) *Dict {
	workers = parallel.Workers(workers)
	shards := workers
	if shards > len(libraries) {
		shards = len(libraries)
	}
	if shards < 1 {
		shards = 1
	}
	sets := make([]map[string]struct{}, shards)
	// Contiguous library ranges per shard; each worker tokenizes its own
	// range into a private set, so no locking and no ordering sensitivity.
	_ = parallel.ForEach(workers, shards, func(s int) error {
		lo := s * len(libraries) / shards
		hi := (s + 1) * len(libraries) / shards
		set := make(map[string]struct{})
		for _, lib := range libraries[lo:hi] {
			for _, name := range lib {
				for _, tok := range terms.Tokenize(name) {
					if _, dup := set[tok]; !dup {
						// Clone: Tokenize returns substrings of a lowered
						// copy of the whole name; storing them directly
						// would retain one such copy per distinct name.
						set[strings.Clone(tok)] = struct{}{}
					}
				}
			}
		}
		sets[s] = set
		return nil
	})
	union := sets[0]
	if union == nil {
		union = map[string]struct{}{}
	}
	for _, set := range sets[1:] {
		for tok := range set {
			union[tok] = struct{}{}
		}
	}
	return FromTokenSet(union, workers)
}

// FromTokenSet builds the dictionary over an already-accumulated token
// set — the streaming construction path, where tokens are collected while
// libraries are spilled to disk rather than held in memory. The result is
// byte-identical to Build over any libraries whose tokens union to this
// set, because IDs are assigned in sorted term order either way.
func FromTokenSet(tokens map[string]struct{}, workers int) *Dict {
	workers = parallel.Workers(workers)
	sorted := make([]string, 0, len(tokens))
	var total int
	for tok := range tokens {
		sorted = append(sorted, tok)
		total += len(tok)
	}
	sort.Strings(sorted)
	// Spill the sorted terms into the arena; the token set and the sorted
	// string headers are all transient — after the build returns (and a
	// GC), the dictionary retains only arena + offsets + map.
	d := &Dict{
		termBytes: make([]byte, 0, total),
		termOff:   make([]uint32, 1, len(sorted)+1),
		ids:       make(map[string]TermID, len(sorted)),
	}
	for i, tok := range sorted {
		d.termBytes = append(d.termBytes, tok...)
		d.termOff = append(d.termOff, uint32(len(d.termBytes)))
		// Key the map by the arena view, not the transient clone.
		d.ids[d.Term(TermID(i))] = TermID(i)
	}
	d.prods = make([]uint32, len(sorted))
	d.hashProducts(workers)
	return d
}

// hashProducts fills prods with the QRP hash of every term. Products are
// pure per term, so parallel chunking cannot change the result.
func (d *Dict) hashProducts(workers int) {
	const chunk = 8192
	nChunks := (d.Len() + chunk - 1) / chunk
	_ = parallel.ForEach(workers, nChunks, func(c int) error {
		lo := c * chunk
		hi := lo + chunk
		if hi > d.Len() {
			hi = d.Len()
		}
		for i := lo; i < hi; i++ {
			d.prods[i] = qrp.HashProduct(d.Term(TermID(i)))
		}
		return nil
	})
}

// FromNames builds a dictionary over a flat name list (one "library").
func FromNames(names []string, workers int) *Dict {
	return Build([][]string{names}, workers)
}

// Raw returns the dictionary's storage — the concatenated term arena and
// its Len()+1 offsets — for persistence. The slices are views of the live
// dictionary; treat them as immutable.
func (d *Dict) Raw() (termBytes []byte, termOff []uint32) {
	return d.termBytes, d.termOff
}

// FromRaw reconstructs a dictionary from a persisted arena: offsets are
// validated (monotone, bounded, terms in strict lexicographic order — the
// invariant binary-search Lookup depends on) and the QRP hash products are
// recomputed in parallel chunks over up to `workers` goroutines. The
// result is Compact (no construction-phase lookup map) and adopts the
// given slices without copying.
func FromRaw(termBytes []byte, termOff []uint32, workers int) (*Dict, error) {
	if len(termOff) == 0 {
		return nil, fmt.Errorf("dict: FromRaw: missing offset table")
	}
	if termOff[0] != 0 || termOff[len(termOff)-1] != uint32(len(termBytes)) {
		return nil, fmt.Errorf("dict: FromRaw: offsets span [%d,%d] over %d arena bytes",
			termOff[0], termOff[len(termOff)-1], len(termBytes))
	}
	d := &Dict{termBytes: termBytes, termOff: termOff}
	for i := 1; i < d.Len(); i++ {
		if termOff[i] > termOff[i+1] {
			return nil, fmt.Errorf("dict: FromRaw: offsets not monotone at term %d", i)
		}
		if d.Term(TermID(i-1)) >= d.Term(TermID(i)) {
			return nil, fmt.Errorf("dict: FromRaw: terms out of order at %d", i)
		}
	}
	d.prods = make([]uint32, d.Len())
	d.hashProducts(workers)
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

// Compact drops the construction-phase lookup map: Lookup, Intern and
// Resolve fall back to binary search over the arena (terms are stored in
// lexicographic order). Call once per-peer index construction is done —
// query resolution touches a handful of tokens per flood, where a few
// string compares are noise, while the map is tens of bytes per term at
// paper scale. Must not race with concurrent lookups.
func (d *Dict) Compact() { d.ids = nil }

// search binary-searches the arena for tok.
func (d *Dict) search(tok string) (TermID, bool) {
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

// Lookup resolves one token.
func (d *Dict) Lookup(tok string) (TermID, bool) {
	if d.ids != nil {
		id, ok := d.ids[tok]
		return id, ok
	}
	return d.search(tok)
}

// Intern returns the dictionary's canonical instance of tok (so callers can
// drop the backing array tok was sliced from) and whether tok is known.
func (d *Dict) Intern(tok string) (string, bool) {
	if id, ok := d.Lookup(tok); ok {
		return d.Term(id), true
	}
	return tok, false
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

// Slot returns id's QRP table slot at the given table width.
func (d *Dict) Slot(id TermID, bits uint) uint32 {
	return qrp.SlotOf(d.prods[id], bits)
}

// HeapBytes estimates the dictionary's retained heap: the term arena,
// offsets, QRP products, and — until Compact — the lookup map
// (conservative per-entry estimate; its keys are arena views, so only
// headers and buckets count).
func (d *Dict) HeapBytes() uint64 {
	b := uint64(len(d.termBytes))
	b += uint64(len(d.termOff)) * 4
	b += uint64(len(d.prods)) * 4
	if d.ids != nil {
		// map[string]TermID: key header + value + ~per-bucket overhead.
		b += uint64(len(d.ids)) * (uint64(unsafe.Sizeof("")) + 4 + 16)
	}
	return b
}

// Checksum folds the dictionary into a 64-bit FNV-1a fingerprint (for
// worker-count determinism gates). The value depends only on the term
// sequence, not on storage layout or Compact state.
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
