package dmap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestStringRoundTrip(t *testing.T) {
	n := String("minm", "Blue Bayou")
	b, err := Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != "minm" || got.Str != "Blue Bayou" || got.Kind != KindString {
		t.Errorf("round trip: %+v", got)
	}
}

func TestWireLayout(t *testing.T) {
	b, err := Encode(String("minm", "ab"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b[0:4]) != "minm" {
		t.Errorf("code bytes: %q", b[0:4])
	}
	if binary.BigEndian.Uint32(b[4:8]) != 2 {
		t.Errorf("length: %d", binary.BigEndian.Uint32(b[4:8]))
	}
	if string(b[8:]) != "ab" {
		t.Errorf("payload: %q", b[8:])
	}
}

func TestUintSizes(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0x7f)
		n := Uint("mstt", v, size)
		b, err := Encode(n)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(b) != 8+size {
			t.Fatalf("size %d: encoded %d bytes", size, len(b))
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if got.Uint != v {
			t.Errorf("size %d: value %d", size, got.Uint)
		}
	}
	if _, err := Encode(Uint("mstt", 1, 3)); err == nil {
		t.Error("invalid uint size accepted")
	}
}

func TestVersion(t *testing.T) {
	n := Version("mpro", 2, 10)
	b, err := Encode(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint>>16 != 2 || got.Uint&0xffff != 10 {
		t.Errorf("version: %x", got.Uint)
	}
}

func TestContainerTree(t *testing.T) {
	song := Container("mlit",
		Uint32("miid", 7),
		String("minm", "Blue Bayou"),
		String("asar", "Linda Ronstadt"),
		String("asal", "Simple Dreams"),
		String("asgn", "Rock"),
		Uint32("astn", 4),
	)
	listing := Container("adbs",
		Uint32("mstt", 200),
		Uint32("mtco", 1),
		Uint32("mrco", 1),
		Container("mlcl", song),
	)
	b, err := Encode(listing)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChildUint("mstt") != 200 {
		t.Errorf("mstt = %d", got.ChildUint("mstt"))
	}
	mlcl := got.Child("mlcl")
	if mlcl == nil || len(mlcl.Children) != 1 {
		t.Fatal("missing mlcl/mlit")
	}
	item := mlcl.Children[0]
	if item.ChildString("asar") != "Linda Ronstadt" {
		t.Errorf("asar = %q", item.ChildString("asar"))
	}
	if item.ChildString("asgn") != "Rock" {
		t.Errorf("asgn = %q", item.ChildString("asgn"))
	}
	if item.ChildUint("miid") != 7 {
		t.Errorf("miid = %d", item.ChildUint("miid"))
	}
	if item.ChildString("nope") != "" || item.ChildUint("nope") != 0 || item.Child("nope") != nil {
		t.Error("absent child accessors should return zero values")
	}
}

func TestUnknownCodeDecodesAsRaw(t *testing.T) {
	var b []byte
	b = append(b, "zzzz"...)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = append(b, 1, 2, 3)
	n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n.Kind != KindRaw || !bytes.Equal(n.Raw, []byte{1, 2, 3}) {
		t.Errorf("raw decode: %+v", n)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := Encode(String("minm", "hello"))
	for cut := 1; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Bad integer width.
	var b []byte
	b = append(b, "mstt"...)
	b = binary.BigEndian.AppendUint32(b, 3)
	b = append(b, 1, 2, 3)
	if _, err := Decode(b); err == nil {
		t.Error("3-byte integer accepted")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(&Node{Code: "toolong", Kind: KindString}); err == nil {
		t.Error("long code accepted")
	}
	if _, err := Encode(&Node{Code: "mini", Kind: Kind(99)}); err == nil {
		t.Error("unknown kind accepted")
	}
	// Error inside a container must propagate.
	if _, err := Encode(Container("mlit", &Node{Code: "x", Kind: KindString})); err == nil {
		t.Error("bad child accepted")
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		b, err := Encode(String("minm", s))
		if err != nil {
			return false
		}
		got, err := Decode(b)
		return err == nil && got.Str == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeepNesting(t *testing.T) {
	n := String("minm", "leaf")
	tree := Container("mlit", n)
	for i := 0; i < 20; i++ {
		tree = Container("mlcl", tree)
	}
	b, err := Encode(tree)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for got.Kind == KindContainer {
		if len(got.Children) == 0 {
			t.Fatal("lost children while descending")
		}
		got = got.Children[0]
	}
	if got.Str != "leaf" {
		t.Errorf("leaf = %q", got.Str)
	}
}

func BenchmarkEncodeListing(b *testing.B) {
	var items []*Node
	for i := 0; i < 100; i++ {
		items = append(items, Container("mlit",
			Uint32("miid", uint32(i)),
			String("minm", "Some Song Title"),
			String("asar", "Some Artist"),
			String("asal", "Some Album"),
			String("asgn", "Rock"),
		))
	}
	listing := Container("adbs", Uint32("mstt", 200), Container("mlcl", items...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(listing); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeListing(b *testing.B) {
	var items []*Node
	for i := 0; i < 100; i++ {
		items = append(items, Container("mlit",
			Uint32("miid", uint32(i)),
			String("minm", "Some Song Title"),
			String("asar", "Some Artist"),
		))
	}
	raw, _ := Encode(Container("adbs", Uint32("mstt", 200), Container("mlcl", items...)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
