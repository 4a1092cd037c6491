package gnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"querycentric/internal/obs"
	"querycentric/internal/rng"
	"querycentric/internal/vpost"
)

// Damage modes FuzzIntersectVsCursor applies to one gap of one list body.
const (
	damageNone     = iota
	damageTruncate // the body ends one byte into a two-byte gap
	damagePadded   // the gap is re-encoded as six bytes (same value)
	damageHugeGap  // the gap exceeds MaxInt32
	damageOverflow // the gap fits int32, the posting it makes does not
	damageModes
)

// cursorPrefix decodes r through the reference decoder, vpost.Cursor:
// every posting up to where the Cursor stops.
func cursorPrefix(r postingsRef) []int32 {
	var out []int32
	c := r.cursor()
	for v, ok := c.Next(); ok; v, ok = c.Next() {
		out = append(out, v)
	}
	return out
}

// fuzzRef encodes list as the arena holds it — the inline posting when it
// has one, otherwise the vpost body followed by trailing arena bytes — and
// applies damage to a multi-posting body's gap `back` places before its
// last (the end of a list near MaxInt32 is where a one-byte gap can
// overflow).
func fuzzRef(list []int32, damage, back int, r *rng.Source) postingsRef {
	if len(list) == 1 {
		return postingsRef{count: 1, single: list[0]}
	}
	k := len(list) - 1 - back%len(list)
	var body []byte
	prev := int32(-1)
	for i, v := range list {
		gap, last := uint64(v-prev-1), prev
		prev = v
		if i != k {
			body = vpost.AppendUvarint(body, gap)
			continue
		}
		switch damage {
		case damageTruncate:
			// A body can end mid-varint only where the arena ends.
			return postingsRef{count: len(list), body: append(body, 0x80|byte(r.Intn(0x80)))}
		case damagePadded:
			for j := 0; j < 5; j++ {
				body = append(body, byte(gap&0x7f)|0x80)
				gap >>= 7
			}
			body = append(body, byte(gap))
		case damageHugeGap:
			body = vpost.AppendUvarint(body, math.MaxInt32+1+r.Uint64n(1<<40))
		case damageOverflow:
			body = vpost.AppendUvarint(body, uint64(math.MaxInt32-int64(last)))
		default:
			body = vpost.AppendUvarint(body, gap)
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		body = append(body, byte(r.Intn(256)))
	}
	return postingsRef{count: len(list), body: body}
}

// FuzzIntersectVsCursor holds the match path's posting kernel (intersect
// and intersectRef, with their inline one-byte gap decode) to the
// vpost.Cursor reference. One to four ascending lists of 1–10⁴ postings
// are drawn from one range at independent densities (so every skew
// between the rarest and the longest list occurs), near 0 or just below
// MaxInt32, with mostly one-byte gaps and some longer ones. One gap of one
// list may be damaged: the body truncated mid-varint, a six-byte padded
// gap, a gap past MaxInt32, or a gap that carries the posting past
// MaxInt32. The kernel's survivors must be the intersection of what a
// Cursor decodes from each list, and its postings-decoded tally exactly
// what the walk has to read: every posting of the rarest list; of each
// longer list those below the current candidates' last, plus the one that
// ends the walk (a single-posting list counts its one).
func FuzzIntersectVsCursor(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(100), uint8(damageNone), uint16(0))
	f.Add(uint64(2), uint8(4), uint16(9999), uint8(damageNone), uint16(0))
	f.Add(uint64(3), uint8(1), uint16(3), uint8(damageTruncate), uint16(1))
	f.Add(uint64(4), uint8(3), uint16(5000), uint8(damageTruncate), uint16(77))
	f.Add(uint64(5), uint8(2), uint16(900), uint8(damagePadded), uint16(13))
	f.Add(uint64(6), uint8(3), uint16(2000), uint8(damageHugeGap), uint16(500))
	f.Add(uint64(7), uint8(2|0x80), uint16(400), uint8(damageOverflow), uint16(40))
	f.Add(uint64(8), uint8(4|0x80), uint16(9999), uint8(damageNone), uint16(0))
	// shape's low two bits are the list count less one and its top bit
	// picks the range below MaxInt32; size sets the range's width; damage
	// is a mode (low three bits) and the victim list (the rest); back
	// places the damaged gap counting from the list's last.
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, size uint16, damage uint8, back uint16) {
		r := rng.New(seed)
		nTerms := 1 + int(shape&3)
		span := 1 + int64(size)%10000
		lo := int64(0)
		if shape&0x80 != 0 {
			// Just below MaxInt32 the inline path must hand even a
			// one-byte gap to the checked step before the posting could
			// overflow.
			lo = math.MaxInt32 - span - int64(r.Intn(64))
		}
		lists := make([][]int32, nTerms)
		for i := range lists {
			density := 1 / float64(int(1)<<uint(r.Intn(12)))
			for v := lo + int64(r.Intn(3)); v <= math.MaxInt32 && v-lo < span; {
				if r.Bool(density) {
					lists[i] = append(lists[i], int32(v))
				}
				// Mostly one-byte gaps; now and then a multi-byte one.
				v++
				if r.Intn(64) == 0 {
					v += int64(r.Intn(300))
				}
			}
			if len(lists[i]) == 0 {
				lists[i] = []int32{int32(lo)}
			}
		}
		refs := make([]postingsRef, nTerms)
		victim := int(damage>>3) % nTerms
		for i, l := range lists {
			d := damageNone
			if i == victim {
				d = int(damage&7) % damageModes
			}
			refs[i] = fuzzRef(l, d, int(back), r)
		}

		// Reference: what a Cursor decodes from each list, intersected in
		// the kernel's rarest-first order, with the walk's reads counted.
		order := make([]int, nTerms)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return refs[a].count - refs[b].count })
		want := cursorPrefix(refs[order[0]])
		wantDecoded := len(want)
		for _, i := range order[1:] {
			if len(want) == 0 {
				break
			}
			prefix := cursorPrefix(refs[i])
			if refs[i].count == 1 {
				wantDecoded++
			} else {
				below, _ := slices.BinarySearch(prefix, want[len(want)-1])
				wantDecoded += min(below+1, len(prefix))
			}
			var keep []int32
			for _, v := range want {
				if _, ok := slices.BinarySearch(prefix, v); ok {
					keep = append(keep, v)
				}
			}
			want = keep
		}

		s := matchScratch{sel: slices.Clone(refs)}
		got := s.intersect()
		if !slices.Equal(got, want) {
			t.Fatalf("intersect: %s (counts %v)", firstDiff(got, want), counts(refs))
		}
		if s.decoded != wantDecoded {
			t.Fatalf("intersect decoded %d postings, reference walk %d (counts %v)", s.decoded, wantDecoded, counts(refs))
		}
		// Reused scratch (the flood's case) answers the same.
		s.sel = append(s.sel[:0], refs...)
		if again := s.intersect(); !slices.Equal(again, want) {
			t.Fatalf("second intersect through the same scratch: %s", firstDiff(again, want))
		}
	})
}

// firstDiff describes where got departs from the reference want.
func firstDiff(got, want []int32) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	at := func(l []int32) string {
		if i < len(l) {
			return fmt.Sprint(l[i])
		}
		return "end"
	}
	return fmt.Sprintf("%d survivors, Cursor reference %d; first difference at %d: %s, want %s", len(got), len(want), i, at(got), at(want))
}

func counts(refs []postingsRef) []int {
	out := make([]int, len(refs))
	for i, r := range refs {
		out[i] = r.count
	}
	return out
}

// TestIntersectAllocatesNothing pins the posting kernel at zero heap
// allocations once its scratch has grown: a flood runs it at every peer it
// probes. (Lowering a pin is free; raising one needs a CHANGES.md line
// that names the cause.)
func TestIntersectAllocatesNothing(t *testing.T) {
	nw := populatedNet(t, 150)
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	ids, _ := nw.dict.Resolve(TokenizeQuery(DenseQuery(nw)), nil)
	// A peer where both lists are bodies and the intersection is not empty.
	var s matchScratch
	var refs []postingsRef
	for _, q := range nw.Peers {
		a, okA := q.idx.lookup(ids[0])
		b, okB := q.idx.lookup(ids[1])
		if okA && okB && a.count > 1 && b.count > 1 {
			s.sel = append(s.sel[:0], a, b)
			if len(s.intersect()) > 0 {
				refs = []postingsRef{a, b}
				break
			}
		}
	}
	if refs == nil {
		t.Fatal("no peer holds both dense terms on more than one file, with files in common")
	}
	run := func() {
		s.sel = append(s.sel[:0], refs...)
		s.intersect()
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("intersect allocates %v times per call after warm-up, want 0", n)
	}
}

// TestFloodCostPins pins two fixed-seed floods over populatedNet(150) at
// exact costs: heap allocations per flood, posting indexes probed and
// postings decoded. The all-dense flood reads through the offset columns;
// the sparse-rarest one probes only the rarest term's holders. Allocation
// and work counts are exact on any host, so a change that moves one moves
// it here. Lowering a pin is free; raising one needs a CHANGES.md line
// that names the cause. The published gnet_flood_postings_total must
// equal the flood's own tally.
func TestFloodCostPins(t *testing.T) {
	nw := populatedNet(t, 150)
	if err := nw.BuildIndexes(1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, criteria           string
		dense                    bool
		allocs, probes, postings int
	}{
		{"all-dense", DenseQuery(nw), true, 150, 144, 6782},
		{"sparse-rarest", fileOf(t, nw, 7), false, 7, 2, 10},
	}
	for _, c := range cases {
		ctx := nw.NewFloodCtx()
		flood := func() {
			if _, err := ctx.Flood(0, c.criteria, 4, rng.New(11)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, flood)
		if got := len(ctx.cols) > 0; got != c.dense {
			t.Fatalf("%s (%q): flood read offset columns = %v, want %v", c.name, c.criteria, got, c.dense)
		}
		if int(allocs) != c.allocs || ctx.probes != c.probes || ctx.ms.decoded != c.postings {
			t.Errorf("%s (%q): %v allocs, %d probes, %d postings decoded; pinned %d, %d, %d",
				c.name, c.criteria, allocs, ctx.probes, ctx.ms.decoded, c.allocs, c.probes, c.postings)
		}
		reg := obs.NewRegistry()
		nw.Instrument(reg, nil)
		flood()
		nw.Instrument(nil, nil)
		if got := reg.Counter("gnet_flood_postings_total").Value(); got != int64(ctx.ms.decoded) {
			t.Errorf("%s: gnet_flood_postings_total = %d, flood decoded %d", c.name, got, ctx.ms.decoded)
		}
	}
}
