package gmsg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// fuzzSeeds returns one well-formed encoded descriptor per type, so the
// fuzzer starts from valid wire messages and mutates toward the edge cases.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	msgs := []*Message{
		{Header: Header{GUID: testGUID(), Type: TypePing, TTL: 7}},
		{Header: Header{GUID: testGUID(), Type: TypePong, TTL: 1},
			Pong: &Pong{Port: 6346, IP: [4]byte{10, 0, 0, 7}, FilesCount: 12, KBShared: 34}},
		{Header: Header{GUID: testGUID(), Type: TypeBye, TTL: 1},
			Bye: &Bye{Code: ByeCodeShutdown, Reason: "shutting down"}},
		{Header: Header{GUID: testGUID(), Type: TypeQuery, TTL: 5},
			Query: &Query{MinSpeed: 4, Criteria: "aaron neville know much"}},
		{Header: Header{GUID: testGUID(), Type: TypeQueryHit, TTL: 3},
			QueryHit: &QueryHit{Port: 6346, IP: [4]byte{10, 1, 2, 3}, Speed: 1000,
				Results: []Result{
					{FileIndex: 1, FileSize: 4096, FileName: "Aaron Neville - I Don't Know Much.mp3"},
					{FileIndex: 9, FileSize: 123, FileName: "01 Track.wma"},
				},
				ServentID: testGUID()}},
		{Header: Header{GUID: testGUID(), Type: TypePush, TTL: 1},
			Push: &Push{ServentID: testGUID(), FileIndex: 42, IP: [4]byte{1, 2, 3, 4}, Port: 6347}},
	}
	var seeds [][]byte
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			tb.Fatalf("encoding seed type 0x%02x: %v", m.Header.Type, err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzDecodeMessage asserts that Decode never panics or over-reads on
// arbitrary input: it either returns an error, or a message whose consumed
// byte count lies inside the input and whose re-encoding round-trips.
// DecodeInto must agree with it, and AppendEncode after any prefix must
// append exactly Encode's bytes.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	// Hand-crafted adversarial seeds: truncations, bad types, bad lengths.
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize-1))
	f.Add(EncodeHeader(nil, Header{Type: TypeQueryHit, PayloadLen: 27}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := Decode(b)
		// DecodeInto a message that already holds stale payloads (the Pong
		// struct it reuses among them) agrees with Decode.
		into := Message{Pong: &Pong{Port: 1}, Push: &Push{Port: 2}, Bye: &Bye{Reason: "stale"}}
		intoN, intoErr := DecodeInto(&into, b)
		if fmt.Sprint(intoErr) != fmt.Sprint(err) || (err == nil && (intoN != n || !reflect.DeepEqual(into, *m))) {
			t.Fatalf("DecodeInto = %+v, %d, %v; Decode = %+v, %d, %v", into, intoN, intoErr, m, n, err)
		}
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both a message and an error: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("Decode returned nil message without an error")
		}
		if n < HeaderSize || n > len(b) {
			t.Fatalf("Decode consumed %d bytes of a %d-byte input", n, len(b))
		}
		if int(m.Header.PayloadLen) != n-HeaderSize {
			t.Fatalf("consumed %d bytes but header claims %d-byte payload", n, m.Header.PayloadLen)
		}
		// A successfully decoded descriptor must re-encode: Decode may only
		// accept messages Encode can represent.
		enc, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		// Encode is AppendEncode onto nothing: appending after any prefix,
		// into a buffer with or without spare capacity, yields the prefix
		// followed by exactly Encode's bytes, and leaves the prefix intact.
		prefix := b[n:]
		for _, spare := range []int{0, len(enc)} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got, err := AppendEncode(dst, m)
			if err != nil {
				t.Fatalf("AppendEncode after a %d-byte prefix: %v", len(prefix), err)
			}
			if want := append(append([]byte(nil), prefix...), enc...); !bytes.Equal(got, want) {
				t.Fatalf("AppendEncode(prefix, m) = %x, want prefix ‖ Encode(m) = %x", got, want)
			}
		}
	})
}
