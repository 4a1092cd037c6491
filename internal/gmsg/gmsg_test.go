package gmsg

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func testGUID() GUID {
	return GUIDFromUint64s(0x0123456789abcdef, 0xfedcba9876543210)
}

func TestGUIDString(t *testing.T) {
	g := GUID{0x01, 0xab}
	s := g.String()
	if len(s) != 32 {
		t.Fatalf("GUID string length %d", len(s))
	}
	if s[:4] != "01ab" {
		t.Errorf("GUID string prefix %q", s[:4])
	}
}

func TestGUIDConvention(t *testing.T) {
	g := GUIDFromUint64s(^uint64(0), ^uint64(0))
	if g[8] != 0xff || g[15] != 0x00 {
		t.Errorf("GUID convention bytes: g[8]=0x%02x g[15]=0x%02x", g[8], g[15])
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{GUID: testGUID(), Type: TypeQuery, TTL: 7, Hops: 2, PayloadLen: 55}
	b := EncodeHeader(nil, h)
	if len(b) != HeaderSize {
		t.Fatalf("encoded header is %d bytes", len(b))
	}
	got, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("round trip: got %+v, want %+v", got, h)
	}
}

func TestHeaderWireLayout(t *testing.T) {
	// Byte-for-byte check against the spec: GUID[16], type, ttl, hops,
	// little-endian length.
	h := Header{GUID: testGUID(), Type: TypePong, TTL: 3, Hops: 1, PayloadLen: 0x01020304}
	b := EncodeHeader(nil, h)
	if !bytes.Equal(b[0:16], h.GUID[:]) {
		t.Error("GUID bytes misplaced")
	}
	if b[16] != TypePong || b[17] != 3 || b[18] != 1 {
		t.Error("type/ttl/hops bytes misplaced")
	}
	if binary.LittleEndian.Uint32(b[19:23]) != 0x01020304 {
		t.Error("payload length not little-endian at offset 19")
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	b := EncodeHeader(nil, Header{Type: TypePing})
	b[16] = 0x55 // unknown type
	if _, err := DecodeHeader(b); err == nil {
		t.Error("unknown type accepted")
	}
	b2 := EncodeHeader(nil, Header{Type: TypePing, PayloadLen: MaxPayload + 1})
	if _, err := DecodeHeader(b2); err == nil {
		t.Error("oversized payload length accepted")
	}
}

func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(b))
	}
	return got
}

func TestPingRoundTrip(t *testing.T) {
	m := &Message{Header: Header{GUID: testGUID(), Type: TypePing, TTL: 7}}
	got := roundTrip(t, m)
	if got.Header.Type != TypePing || got.Header.TTL != 7 {
		t.Errorf("ping round trip: %+v", got.Header)
	}
}

func TestPingWithPayloadRejected(t *testing.T) {
	b := EncodeHeader(nil, Header{Type: TypePing, PayloadLen: 1})
	b = append(b, 0xaa)
	if _, _, err := Decode(b); err == nil {
		t.Error("ping with payload accepted")
	}
}

func TestPongRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypePong, TTL: 1},
		Pong:   &Pong{Port: 6346, IP: [4]byte{10, 1, 2, 3}, FilesCount: 321, KBShared: 999},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Pong, m.Pong) {
		t.Errorf("pong round trip: %+v vs %+v", got.Pong, m.Pong)
	}
}

func TestByeRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypeBye, TTL: 1},
		Bye:    &Bye{Code: ByeCodeShutdown, Reason: "going home"},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Bye, m.Bye) {
		t.Errorf("bye round trip: %+v vs %+v", got.Bye, m.Bye)
	}
}

func TestByeUnterminatedReasonRejected(t *testing.T) {
	payload := (&Bye{Code: 200, Reason: "bye"}).encode(nil)
	payload = payload[:len(payload)-1] // strip the NUL
	b := EncodeHeader(nil, Header{GUID: testGUID(), Type: TypeBye, TTL: 1, PayloadLen: uint32(len(payload))})
	b = append(b, payload...)
	if _, _, err := Decode(b); err == nil {
		t.Error("bye without reason terminator accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 5},
		Query:  &Query{MinSpeed: 0, Criteria: "aaron neville know much"},
	}
	got := roundTrip(t, m)
	if got.Query.Criteria != m.Query.Criteria {
		t.Errorf("criteria %q vs %q", got.Query.Criteria, m.Query.Criteria)
	}
}

func TestQueryUTF8Criteria(t *testing.T) {
	// The paper notes UTF-8 names on the wire; multi-byte must survive.
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 5},
		Query:  &Query{Criteria: "日本語 ノート ümlaut"},
	}
	got := roundTrip(t, m)
	if got.Query.Criteria != m.Query.Criteria {
		t.Errorf("UTF-8 criteria corrupted: %q", got.Query.Criteria)
	}
}

func TestQueryWithExtensionBlock(t *testing.T) {
	// Bytes after the criteria null are extensions; decoder must ignore.
	q := &Query{MinSpeed: 4, Criteria: "test"}
	payload := q.encode(nil)
	payload = append(payload, []byte{0xc3, 0x01, 0x02}...) // fake GGEP
	b := EncodeHeader(nil, Header{GUID: testGUID(), Type: TypeQuery, TTL: 1, PayloadLen: uint32(len(payload))})
	b = append(b, payload...)
	m, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Query.Criteria != "test" {
		t.Errorf("criteria = %q", m.Query.Criteria)
	}
}

func TestQueryHitRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypeQueryHit, TTL: 5},
		QueryHit: &QueryHit{
			Port:  6346,
			IP:    [4]byte{192, 168, 0, 7},
			Speed: 1000,
			Results: []Result{
				{FileIndex: 1, FileSize: 4096, FileName: "Aaron Neville - I Don't Know Much.mp3"},
				{FileIndex: 9, FileSize: 123, FileName: "01 Track.wma"},
			},
			ServentID: testGUID(),
		},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.QueryHit, m.QueryHit) {
		t.Errorf("queryhit round trip:\n got %+v\nwant %+v", got.QueryHit, m.QueryHit)
	}
}

func TestQueryHitEmptyResults(t *testing.T) {
	m := &Message{
		Header:   Header{GUID: testGUID(), Type: TypeQueryHit, TTL: 1},
		QueryHit: &QueryHit{Port: 1, ServentID: testGUID()},
	}
	got := roundTrip(t, m)
	if len(got.QueryHit.Results) != 0 {
		t.Errorf("expected no results, got %d", len(got.QueryHit.Results))
	}
}

func TestQueryHitTooManyResults(t *testing.T) {
	qh := &QueryHit{ServentID: testGUID()}
	for i := 0; i < 256; i++ {
		qh.Results = append(qh.Results, Result{FileName: "x"})
	}
	_, err := Encode(&Message{Header: Header{Type: TypeQueryHit}, QueryHit: qh})
	if err == nil {
		t.Error("256-result queryhit accepted")
	}
}

func TestPushRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{GUID: testGUID(), Type: TypePush, TTL: 1},
		Push:   &Push{ServentID: testGUID(), FileIndex: 42, IP: [4]byte{1, 2, 3, 4}, Port: 6347},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Push, m.Push) {
		t.Errorf("push round trip: %+v vs %+v", got.Push, m.Push)
	}
}

func TestEncodeMissingPayload(t *testing.T) {
	for _, typ := range []byte{TypePong, TypeQuery, TypeQueryHit, TypePush} {
		if _, err := Encode(&Message{Header: Header{Type: typ}}); err == nil {
			t.Errorf("type 0x%02x without payload accepted", typ)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &Message{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 3},
		Query: &Query{Criteria: "hello world"}}
	b, _ := Encode(m)
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeCorruptQueryHit(t *testing.T) {
	// Claim 3 results but provide 1.
	qh := &QueryHit{Results: []Result{{FileName: "a"}}, ServentID: testGUID()}
	payload := qh.encode(nil)
	payload[0] = 3
	b := EncodeHeader(nil, Header{GUID: testGUID(), Type: TypeQueryHit, TTL: 1, PayloadLen: uint32(len(payload))})
	b = append(b, payload...)
	if _, _, err := Decode(b); err == nil {
		t.Error("queryhit with inconsistent result count accepted")
	}
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Header: Header{GUID: testGUID(), Type: TypePing, TTL: 7}},
		{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 5}, Query: &Query{Criteria: "zeppelin"}},
		{Header: Header{GUID: testGUID(), Type: TypePong, TTL: 1}, Pong: &Pong{Port: 6346}},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if got.Header.Type != want.Header.Type {
			t.Errorf("message %d type 0x%02x, want 0x%02x", i, got.Header.Type, want.Header.Type)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Error("read from empty stream succeeded")
	}
}

func TestQuickQueryRoundTrip(t *testing.T) {
	f := func(speed uint16, criteria string) bool {
		// Criteria cannot contain NUL on the wire.
		clean := make([]byte, 0, len(criteria))
		for i := 0; i < len(criteria); i++ {
			if criteria[i] != 0 {
				clean = append(clean, criteria[i])
			}
		}
		m := &Message{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 2},
			Query: &Query{MinSpeed: speed, Criteria: string(clean)}}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		return err == nil && n == len(b) &&
			got.Query.MinSpeed == speed && got.Query.Criteria == string(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPongRoundTrip(t *testing.T) {
	f := func(port uint16, ip [4]byte, files, kb uint32) bool {
		m := &Message{Header: Header{GUID: testGUID(), Type: TypePong, TTL: 1},
			Pong: &Pong{Port: port, IP: ip, FilesCount: files, KBShared: kb}}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, _, err := Decode(b)
		return err == nil && *got.Pong == *m.Pong
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	m := &Message{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 5},
		Query: &Query{Criteria: "aaron neville linda ronstadt"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeQueryHit(b *testing.B) {
	qh := &QueryHit{Port: 6346, ServentID: testGUID()}
	for i := 0; i < 20; i++ {
		qh.Results = append(qh.Results, Result{FileIndex: uint32(i), FileSize: 1 << 20,
			FileName: "Some Artist - Some Fairly Long Song Title (Remastered).mp3"})
	}
	raw, _ := Encode(&Message{Header: Header{GUID: testGUID(), Type: TypeQueryHit, TTL: 3}, QueryHit: qh})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWirePathAllocPins pins AppendEncode and DecodeInto into reused
// buffers at exact allocation counts per message kind: pings and pongs
// allocate nothing; a decoded Bye or Query costs its payload struct and its
// string. Allocation counts are exact on any host.
// Lowering a pin is free; raising one needs a CHANGES.md line that names
// the cause.
func TestWirePathAllocPins(t *testing.T) {
	cases := []struct {
		m              *Message
		encode, decode float64
	}{
		{&Message{Header: Header{GUID: testGUID(), Type: TypePing, TTL: 7}}, 0, 0},
		{&Message{Header: Header{GUID: testGUID(), Type: TypePong, TTL: 1},
			Pong: &Pong{Port: 6346, IP: [4]byte{10, 1, 2, 3}, FilesCount: 321, KBShared: 999}}, 0, 0},
		{&Message{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 3},
			Query: &Query{MinSpeed: 0, Criteria: "madonna like a prayer"}}, 0, 2},
		{&Message{Header: Header{GUID: testGUID(), Type: TypeBye, TTL: 1},
			Bye: &Bye{Code: ByeCodeShutdown, Reason: "going home"}}, 0, 2},
	}
	for _, c := range cases {
		buf, err := AppendEncode(nil, c.m)
		if err != nil {
			t.Fatal(err)
		}
		var into Message
		if _, err := DecodeInto(&into, buf); err != nil {
			t.Fatal(err)
		}
		enc := testing.AllocsPerRun(100, func() {
			if buf, err = AppendEncode(buf[:0], c.m); err != nil {
				t.Fatal(err)
			}
		})
		dec := testing.AllocsPerRun(100, func() {
			if _, err := DecodeInto(&into, buf); err != nil {
				t.Fatal(err)
			}
		})
		if enc != c.encode || dec != c.decode {
			t.Errorf("type 0x%02x: AppendEncode %v, DecodeInto %v allocations; pinned %v, %v",
				c.m.Header.Type, enc, dec, c.encode, c.decode)
		}
	}
}
