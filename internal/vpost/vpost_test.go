package vpost

import (
	"math"
	"reflect"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 14, 1<<14 - 1, 1 << 21, 1 << 28, 1 << 35, math.MaxUint32, math.MaxUint64}
	for _, v := range values {
		b := AppendUvarint(nil, v)
		got, n := Uvarint(b)
		if n != len(b) || got != v {
			t.Fatalf("Uvarint(Append(%d)) = (%d, %d), want (%d, %d)", v, got, n, v, len(b))
		}
		if s := SkipUvarint(b); s != len(b) {
			t.Fatalf("SkipUvarint(%d) = %d, want %d", v, s, len(b))
		}
	}
}

func TestUvarintTruncatedAndOverflow(t *testing.T) {
	if _, n := Uvarint(nil); n != 0 {
		t.Fatalf("Uvarint(nil) n = %d, want 0", n)
	}
	if _, n := Uvarint([]byte{0x80, 0x80}); n != 0 {
		t.Fatalf("Uvarint(all-continuation) n = %d, want 0", n)
	}
	// Eleven continuation bytes can never be a valid 64-bit varint.
	over := make([]byte, 11)
	for i := range over {
		over[i] = 0x80
	}
	if _, n := Uvarint(over); n >= 0 {
		t.Fatalf("Uvarint(overflow) n = %d, want < 0", n)
	}
	// Ten bytes whose last carries more than the top bit also overflows.
	ten := append(make([]byte, 0, 10), over[:9]...)
	ten = append(ten, 0x02)
	if _, n := Uvarint(ten); n >= 0 {
		t.Fatalf("Uvarint(10-byte overflow) n = %d, want < 0", n)
	}
	max := AppendUvarint(nil, math.MaxUint64)
	if v, n := Uvarint(max); n != len(max) || v != math.MaxUint64 {
		t.Fatalf("Uvarint(MaxUint64) = (%d, %d)", v, n)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	lists := [][]int32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{3, 900, 901, 100000, math.MaxInt32},
		{math.MaxInt32},
	}
	var dst []int32
	for _, l := range lists {
		b := Encode(nil, l)
		got, n, err := Decode(b, dst[:0])
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", l, err)
		}
		if n != len(b) {
			t.Fatalf("Decode(%v) consumed %d of %d bytes", l, n, len(b))
		}
		if len(l) == 0 {
			if len(got) != 0 {
				t.Fatalf("Decode(empty) = %v", got)
			}
			continue
		}
		if !reflect.DeepEqual([]int32(got), l) {
			t.Fatalf("round trip %v = %v", l, got)
		}
	}
}

func TestDecodeTrailingBytesIgnored(t *testing.T) {
	b := Encode(nil, []int32{2, 7})
	b = append(b, 0xff, 0x01) // another record after this one
	got, n, err := Decode(b, nil)
	if err != nil || n != len(b)-2 {
		t.Fatalf("Decode with trailing bytes: %v (n=%d)", err, n)
	}
	if !reflect.DeepEqual([]int32(got), []int32{2, 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// Count 2, first = MaxInt32, then any further gap pushes past int32.
	valueOverflow := AppendUvarint(AppendUvarint([]byte{0x02}, math.MaxInt32), 4)
	cases := map[string][]byte{
		"empty":              {},
		"count-truncated":    {0x80},
		"count-over-length":  {0x7f, 0x01}, // 127 postings, 1 byte of body
		"body-truncated":     {0x02, 0x01},
		"body-mid-varint":    {0x01, 0x80},
		"gap-overflows-i32":  append(AppendUvarint([]byte{0x02, 0x01}, 1<<33), 0x00),
		"value-overflow-i32": valueOverflow,
	}
	for name, b := range cases {
		if _, _, err := Decode(b, nil); err == nil {
			t.Fatalf("Decode(%s) succeeded, want error", name)
		}
	}
}

func TestAppendBodyPanicsOnDisorder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendBody accepted a non-ascending list")
		}
	}()
	AppendBody(nil, []int32{3, 3})
}

func TestCursorMatchesDecode(t *testing.T) {
	l := []int32{1, 4, 6, 10000, 10001}
	body := AppendBody(nil, l)
	c := NewCursor(body, len(l))
	for i, want := range l {
		got, ok := c.Next()
		if !ok || got != want {
			t.Fatalf("cursor[%d] = (%d, %v), want %d", i, got, ok, want)
		}
	}
	if _, ok := c.Next(); ok {
		t.Fatal("cursor yielded beyond count")
	}
	if c.Err() != nil {
		t.Fatalf("clean cursor reports %v", c.Err())
	}
}

// TestNextStopsWhereCursorMust pins the one checked decode step: it takes
// any well-formed gap (padded encodings included) whose posting fits
// int32, and refuses — consuming nothing — a truncated varint, one over 64
// bits, a gap past MaxInt32 and a gap that carries the posting past it.
func TestNextStopsWhereCursorMust(t *testing.T) {
	cases := []struct {
		name  string
		b     []byte
		prev  int32
		want  int32
		wantN int
	}{
		{"first posting", []byte{0x05}, -1, 5, 1},
		{"one-byte gap", []byte{0x00, 0xff}, 9, 10, 1},
		{"two-byte gap", []byte{0x80, 0x01}, 0, 129, 2},
		{"six-byte padded gap", []byte{0x81, 0x80, 0x80, 0x80, 0x80, 0x00}, 3, 5, 6},
		{"last int32", AppendUvarint(nil, 0), math.MaxInt32 - 1, math.MaxInt32, 1},
		{"empty", nil, 0, 0, 0},
		{"truncated", []byte{0x80}, 0, 0, 0},
		{"over 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0, 0, 0},
		{"gap past MaxInt32", AppendUvarint(nil, math.MaxInt32+1), -1, 0, 0},
		{"posting past MaxInt32", AppendUvarint(nil, 0), math.MaxInt32, 0, 0},
		{"one-byte gap past MaxInt32", AppendUvarint(nil, 0x7f), math.MaxInt32 - 100, 0, 0},
	}
	for _, c := range cases {
		got, n := Next(c.b, c.prev)
		if got != c.want || n != c.wantN {
			t.Errorf("%s: Next = (%d, %d), want (%d, %d)", c.name, got, n, c.want, c.wantN)
		}
		cur := Cursor{b: c.b, prev: c.prev, left: 1}
		v, ok := cur.Next()
		if ok != (c.wantN > 0) || v != c.want || (cur.Err() != nil) == ok {
			t.Errorf("%s: Cursor.Next = (%d, %v, err %v), disagrees with Next", c.name, v, ok, cur.Err())
		}
	}
}
