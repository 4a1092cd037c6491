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

import "fmt"

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

// MaxBits is the widest table QRP supports (2^24 slots).
const MaxBits = 24

// CheckBits rejects a table width outside [1, MaxBits].
func CheckBits(bits uint) error {
	if bits < 1 || bits > MaxBits {
		return fmt.Errorf("qrp: bits must be in [1,%d], got %d", MaxBits, bits)
	}
	return nil
}
