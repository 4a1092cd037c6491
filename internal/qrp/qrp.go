// Package qrp implements the Gnutella Query Routing Protocol: the
// deployed ancestor of content synopses. A leaf hashes every keyword of
// every shared file into a fixed-size bit table and ships it to its
// ultrapeers (RESET + PATCH route-table-update messages); an ultrapeer
// forwards a query to a leaf only when every query keyword hits the leaf's
// table.
//
// QRP is the production counterpart of internal/synopsis: it advertises
// *all* file terms (no budget, no adaptivity), which is exactly the design
// the paper's mismatch finding indicts — the table faithfully routes on
// file annotations, but users query with different terms. The ablation
// experiments compare QRP routing against the query-centric adaptive
// synopsis under the same workloads.
package qrp

import (
	"fmt"

	"querycentric/internal/terms"
)

// DefaultBits is the customary table size (2^16 slots).
const DefaultBits = 16

// Hash is the QRP hash: fold the lowercased keyword into 32 bits, multiply
// by the golden-ratio constant 0x4F1BBCDC, and keep the top bits — the
// function deployed clients agreed on so tables compose across vendors.
func Hash(word string, bits uint) uint32 {
	return SlotOf(HashProduct(word), bits)
}

// HashProduct is the table-width-independent half of Hash: the folded,
// multiplied 32-bit product before the final shift. A term dictionary
// computes it once per interned term; SlotOf then derives the slot for any
// table width without touching the string again.
func HashProduct(word string) uint32 {
	var x uint32
	j := uint(0)
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c += 32
		}
		x ^= uint32(c) << (j * 8)
		j = (j + 1) & 3
	}
	return x * 0x4F1BBCDC
}

// SlotOf converts a HashProduct into the slot index of a 2^bits-slot table.
func SlotOf(prod uint32, bits uint) uint32 {
	return prod >> (32 - bits)
}

// Table is a QRP route table: one bit per slot (deployed tables carry
// 4-bit hop counts; presence/absence is what routing decisions use).
type Table struct {
	bits  uint
	slots []uint64
	n     int // keywords added
}

// NewTable creates a table with 2^bits slots (1 <= bits <= 24).
func NewTable(bits uint) (*Table, error) {
	if bits < 1 || bits > 24 {
		return nil, fmt.Errorf("qrp: bits must be in [1,24], got %d", bits)
	}
	return &Table{bits: bits, slots: make([]uint64, (1<<bits+63)/64)}, nil
}

// AddKeyword marks one keyword.
func (t *Table) AddKeyword(word string) {
	t.AddSlot(Hash(word, t.bits))
}

// AddSlot marks a pre-hashed slot (from Hash or SlotOf at this table's bit
// width). Interned-dictionary callers use it to build tables without
// re-hashing term strings.
func (t *Table) AddSlot(slot uint32) {
	t.slots[slot/64] |= 1 << (slot % 64)
	t.n++
}

// AddName tokenizes a shared file name and marks every keyword.
func (t *Table) AddName(name string) {
	for _, tok := range terms.Tokenize(name) {
		t.AddKeyword(tok)
	}
}

// MatchesQuery reports whether every keyword of the query hits the table —
// the ultrapeer's forwarding test. Queries without keywords match nothing.
func (t *Table) MatchesQuery(query string) bool {
	return t.ContainsAll(QueryHashes(query, t.bits))
}

// QueryHashes tokenizes a query once and returns the slot index of every
// keyword. Floods hoist this out of the per-edge forwarding test: the hash
// of the criteria is the same for every candidate leaf, so one flood
// computes it once instead of once per (ultrapeer, leaf) edge. An empty
// result means the query has no keywords and can match no table.
func QueryHashes(query string, bits uint) []uint32 {
	toks := terms.Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	hs := make([]uint32, len(toks))
	for i, tok := range toks {
		hs[i] = Hash(tok, bits)
	}
	return hs
}

// ContainsAll reports whether every pre-hashed slot in hs is set — the
// MatchesQuery decision against hashes from QueryHashes with this table's
// bit width. An empty hs matches nothing, mirroring MatchesQuery on a
// keyword-free query.
func (t *Table) ContainsAll(hs []uint32) bool {
	if len(hs) == 0 {
		return false
	}
	for _, h := range hs {
		if t.slots[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	return true
}

// --- Route-table-update wire form ---------------------------------------
//
// Deployed QRP ships a RESET message (table size + infinity) followed by
// PATCH messages carrying the (optionally compressed) slot array. This
// implementation frames an uncompressed 1-bit patch, sufficient for the
// crawler-scale networks simulated here.

// patchMagic guards decoding.
var patchMagic = []byte{'Q', 'R', 'P', '1'}

// Encode serializes the table as a RESET+PATCH blob.
func (t *Table) Encode() []byte {
	out := make([]byte, 0, 8+len(t.slots)*8)
	out = append(out, patchMagic...)
	out = append(out, byte(t.bits))
	out = append(out, byte(t.n>>16), byte(t.n>>8), byte(t.n))
	for _, w := range t.slots {
		for shift := 0; shift < 64; shift += 8 {
			out = append(out, byte(w>>shift))
		}
	}
	return out
}

// Decode parses a blob produced by Encode.
func Decode(b []byte) (*Table, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("qrp: blob too short: %d bytes", len(b))
	}
	for i, m := range patchMagic {
		if b[i] != m {
			return nil, fmt.Errorf("qrp: bad magic")
		}
	}
	bits := uint(b[4])
	t, err := NewTable(bits)
	if err != nil {
		return nil, err
	}
	t.n = int(b[5])<<16 | int(b[6])<<8 | int(b[7])
	want := 8 + len(t.slots)*8
	if len(b) != want {
		return nil, fmt.Errorf("qrp: blob is %d bytes, want %d for %d-bit table", len(b), want, bits)
	}
	p := b[8:]
	for i := range t.slots {
		var w uint64
		for shift := 0; shift < 64; shift += 8 {
			w |= uint64(p[0]) << shift
			p = p[1:]
		}
		t.slots[i] = w
	}
	return t, nil
}
