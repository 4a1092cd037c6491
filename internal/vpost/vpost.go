// Package vpost is the varint posting-list codec underneath the compressed
// term indexes: LEB128 unsigned varints, delta-encoded ascending posting
// lists, and a streaming decode cursor for intersections that never
// materializes the list it walks.
//
// Posting lists are strictly ascending int32 file indices, so consecutive
// deltas are always ≥ 1 and almost always tiny — one or two bytes each
// instead of the four a flat []int32 arena spends. The self-contained
// Encode/Decode pair (count header + body) is the fuzzed public format;
// the body-only helpers let callers that track counts elsewhere (the
// per-peer block index in internal/gnet) share the same byte layout.
package vpost

import (
	"errors"
	"fmt"
	"math"
)

// MaxUvarintLen is the longest encoding AppendUvarint emits (64 payload
// bits at 7 bits per byte).
const MaxUvarintLen = 10

// Decode errors. Decoders return wrapped versions with positions; use
// errors.Is against these sentinels.
var (
	ErrTruncated = errors.New("vpost: truncated input")
	ErrOverflow  = errors.New("vpost: varint overflows 64 bits")
	ErrCorrupt   = errors.New("vpost: corrupt posting list")
)

// AppendUvarint appends v's LEB128 encoding to dst.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uvarint decodes one LEB128 varint from b, returning the value and the
// number of bytes consumed. n == 0 reports truncated input; n < 0 reports
// a value that overflows 64 bits (|n| bytes were examined).
func Uvarint(b []byte) (uint64, int) {
	var v uint64
	var shift uint
	for i, c := range b {
		if i == MaxUvarintLen {
			return 0, -i
		}
		if c < 0x80 {
			if i == MaxUvarintLen-1 && c > 1 {
				return 0, -(i + 1) // 10th byte may only carry the top bit
			}
			return v | uint64(c)<<shift, i + 1
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

// SkipUvarint returns the length of the varint starting b[0], or 0 when b
// ends mid-varint. It does not validate overflow — use on trusted arenas.
func SkipUvarint(b []byte) int {
	for i, c := range b {
		if c < 0x80 {
			return i + 1
		}
	}
	return 0
}

// AppendBody appends the body of a posting list — first value absolute,
// then the gaps between consecutive values — without a count header. The
// list must be strictly ascending and non-negative; Append panics on
// violations, as the caller owns construction-time invariants.
func AppendBody(dst []byte, postings []int32) []byte {
	prev := int32(-1)
	for _, p := range postings {
		if p <= prev {
			panic(fmt.Sprintf("vpost: postings not strictly ascending: %d after %d", p, prev))
		}
		dst = AppendUvarint(dst, uint64(uint32(p-prev-1)))
		prev = p
	}
	return dst
}

// Cursor streams the values of an encoded posting-list body. The zero
// Cursor is empty; initialize with NewCursor.
type Cursor struct {
	b    []byte
	prev int32
	left int
	bad  bool
}

// NewCursor returns a cursor over an encoded body holding count values.
func NewCursor(body []byte, count int) Cursor {
	return Cursor{b: body, prev: -1, left: count}
}

// Next is the one checked decode step of a posting-list body: it decodes
// the gap at the head of b and returns the posting after prev (-1 before
// the first) and the gap's byte length n. n == 0 reports a gap that cannot
// be taken — truncated mid-varint, overflowing 64 bits, past MaxInt32, or
// carrying the posting past MaxInt32 — and nothing is consumed. Cursor
// steps through it; decoders that inline the common one-byte gap on a
// trusted arena fall back to it for every other gap, so they stop exactly
// where a Cursor stops.
func Next(b []byte, prev int32) (int32, int) {
	gap, n := Uvarint(b)
	if n <= 0 || gap > math.MaxInt32 {
		return 0, 0
	}
	v := int64(prev) + 1 + int64(gap)
	if v > math.MaxInt32 {
		return 0, 0
	}
	return int32(v), n
}

// Next decodes the next posting. ok is false once the list is exhausted or
// the body is corrupt (check Err to distinguish).
func (c *Cursor) Next() (int32, bool) {
	if c.left <= 0 || c.bad {
		return 0, false
	}
	v, n := Next(c.b, c.prev)
	if n == 0 {
		c.bad = true
		return 0, false
	}
	c.b = c.b[n:]
	c.prev = v
	c.left--
	return v, true
}

// Err reports whether the cursor stopped on corrupt bytes rather than a
// clean end of list.
func (c *Cursor) Err() error {
	if c.bad {
		return ErrCorrupt
	}
	return nil
}

// Encode appends the self-contained encoding of a posting list — a count
// varint followed by the body — to dst.
func Encode(dst []byte, postings []int32) []byte {
	dst = AppendUvarint(dst, uint64(len(postings)))
	return AppendBody(dst, postings)
}

// Decode decodes one self-contained posting list from src, appending values
// to dst (pass dst[:0] to reuse a scratch slice). It returns the grown
// slice and the number of bytes consumed. Corrupt input — truncation, a
// count larger than the remaining bytes could hold, gaps that overflow
// int32 — returns an error and never a partial list or a large speculative
// allocation.
func Decode(src []byte, dst []int32) ([]int32, int, error) {
	count, n := Uvarint(src)
	if n == 0 {
		return nil, 0, fmt.Errorf("%w: count header", ErrTruncated)
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("%w: count header", ErrOverflow)
	}
	// Every posting costs at least one byte, so a count beyond the
	// remaining length proves corruption before any allocation happens.
	if count > uint64(len(src)-n) {
		return nil, 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, count, len(src)-n)
	}
	cur := NewCursor(src[n:], int(count))
	for {
		v, ok := cur.Next()
		if !ok {
			break
		}
		dst = append(dst, v)
	}
	if cur.Err() != nil || cur.left != 0 {
		return nil, 0, fmt.Errorf("%w: body ends after %d of %d postings", ErrCorrupt, count-uint64(cur.left), count)
	}
	return dst, n + (len(src) - n - len(cur.b)), nil
}
