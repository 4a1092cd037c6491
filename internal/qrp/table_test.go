package qrp

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"querycentric/internal/terms"
)

// This file is a leaf's QRP route table as deployed servents build, ship
// and consult it: a per-leaf bit table, its RESET+PATCH wire form and the
// keyword match. Networks keep every leaf's table as a column of one bit
// matrix instead (gnet's qrpMatrix); the table stays here as the reference
// the hash functions and the wire form are checked against.

// DefaultBits is the customary table size (2^16 slots).
const DefaultBits = 16

// Table is a QRP route table: one bit per slot (deployed tables carry
// 4-bit hop counts; presence/absence is what routing decisions use).
type Table struct {
	bits  uint
	slots []uint64
	n     int // keywords added
}

// NewTable creates a table with 2^bits slots (1 <= bits <= 24).
func NewTable(bits uint) (*Table, error) {
	if err := CheckBits(bits); err != nil {
		return nil, err
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

// AppendEncode appends the table's RESET+PATCH blob to dst and returns the
// extended slice; AppendEncode(nil) is a fresh blob. A builder that ships
// many tables reuses one blob (and one table, through Reset), so a table
// costs no allocation to encode. Slot words travel little-endian.
func (t *Table) AppendEncode(dst []byte) []byte {
	if need := 8 + len(t.slots)*8; cap(dst)-len(dst) < need {
		dst = append(make([]byte, 0, len(dst)+need), dst...)
	}
	dst = append(dst, patchMagic...)
	dst = append(dst, byte(t.bits), byte(t.n>>16), byte(t.n>>8), byte(t.n))
	for _, w := range t.slots {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Reset clears every slot and the keyword count, keeping the table's
// width and storage.
func (t *Table) Reset() {
	clear(t.slots)
	t.n = 0
}

// Decode parses a blob produced by AppendEncode into a new table.
func Decode(b []byte) (*Table, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("qrp: blob too short: %d bytes", len(b))
	}
	if !bytes.Equal(b[:4], patchMagic) {
		return nil, fmt.Errorf("qrp: bad magic")
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
	for i := range t.slots {
		t.slots[i] = binary.LittleEndian.Uint64(b[8+8*i:])
	}
	return t, nil
}
