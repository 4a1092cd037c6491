// Package gmsg implements the Gnutella 0.6 wire format: the 23-byte
// descriptor header and the Ping, Pong, Query, QueryHit and Push payloads.
//
// The synthetic Gnutella network (internal/gnet) and the crawler
// (internal/crawler) exchange real encoded descriptors so that the
// measurement path of the reproduction exercises the same framing,
// tokenization and TTL/hops rules as the deployed system the paper studied.
// Encoding follows "The Gnutella Protocol Specification v0.6" (RFC draft):
// multi-byte integers are little-endian except IPv4 addresses, which are
// big-endian (network order).
package gmsg

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Descriptor type codes.
const (
	TypePing     byte = 0x00
	TypePong     byte = 0x01
	TypeBye      byte = 0x02
	TypePush     byte = 0x40
	TypeQuery    byte = 0x80
	TypeQueryHit byte = 0x81
)

// HeaderSize is the fixed descriptor header length.
const HeaderSize = 23

// MaxPayload bounds accepted payload lengths; the spec recommends dropping
// descriptors larger than a few KB. Generous here to allow big QueryHits.
const MaxPayload = 1 << 20

// GUID is a 16-byte globally unique descriptor identifier.
type GUID [16]byte

// String renders the GUID as lowercase hex.
func (g GUID) String() string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 32)
	for i, b := range g {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0x0f]
	}
	return string(out)
}

// GUIDFromUint64s builds a GUID from two 64-bit values (e.g. an rng stream).
// Per the modern convention, byte 8 is 0xff and byte 15 is 0x00.
func GUIDFromUint64s(a, b uint64) GUID {
	var g GUID
	binary.LittleEndian.PutUint64(g[0:8], a)
	binary.LittleEndian.PutUint64(g[8:16], b)
	g[8] = 0xff
	g[15] = 0x00
	return g
}

// Header is the 23-byte descriptor header.
type Header struct {
	GUID       GUID
	Type       byte
	TTL        byte
	Hops       byte
	PayloadLen uint32
}

// EncodeHeader appends the wire form of h to dst.
func EncodeHeader(dst []byte, h Header) []byte {
	dst = append(dst, h.GUID[:]...)
	dst = append(dst, h.Type, h.TTL, h.Hops)
	var l [4]byte
	binary.LittleEndian.PutUint32(l[:], h.PayloadLen)
	return append(dst, l[:]...)
}

// DecodeHeader parses a descriptor header from b.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("gmsg: short header: %d bytes", len(b))
	}
	var h Header
	copy(h.GUID[:], b[0:16])
	h.Type = b[16]
	h.TTL = b[17]
	h.Hops = b[18]
	h.PayloadLen = binary.LittleEndian.Uint32(b[19:23])
	switch h.Type {
	case TypePing, TypePong, TypeBye, TypePush, TypeQuery, TypeQueryHit:
	default:
		return Header{}, fmt.Errorf("gmsg: unknown descriptor type 0x%02x", h.Type)
	}
	if h.PayloadLen > MaxPayload {
		return Header{}, fmt.Errorf("gmsg: payload length %d exceeds limit", h.PayloadLen)
	}
	return h, nil
}

// Message is a decoded descriptor: the header plus exactly one non-nil
// payload field matching Header.Type (Ping has no payload struct).
type Message struct {
	Header   Header
	Pong     *Pong
	Bye      *Bye
	Query    *Query
	QueryHit *QueryHit
	Push     *Push
}

// Pong carries a peer's address and shared-content summary.
type Pong struct {
	Port       uint16
	IP         [4]byte
	FilesCount uint32
	KBShared   uint32
}

const pongSize = 14

func (p *Pong) encode(dst []byte) []byte {
	var buf [pongSize]byte
	binary.LittleEndian.PutUint16(buf[0:2], p.Port)
	copy(buf[2:6], p.IP[:])
	binary.LittleEndian.PutUint32(buf[6:10], p.FilesCount)
	binary.LittleEndian.PutUint32(buf[10:14], p.KBShared)
	return append(dst, buf[:]...)
}

// decode overwrites every field of p from the payload b.
func (p *Pong) decode(b []byte) error {
	if len(b) != pongSize {
		return fmt.Errorf("gmsg: pong payload is %d bytes, want %d", len(b), pongSize)
	}
	p.Port = binary.LittleEndian.Uint16(b[0:2])
	copy(p.IP[:], b[2:6])
	p.FilesCount = binary.LittleEndian.Uint32(b[6:10])
	p.KBShared = binary.LittleEndian.Uint32(b[10:14])
	return nil
}

// Bye is the graceful-close descriptor (the Bye extension, widely deployed
// in modern servents): a departing peer sends it on every connection before
// closing, so neighbors learn of the departure immediately instead of
// waiting for a failure detector to time the connection out. The payload is
// a little-endian status code followed by a NUL-terminated reason string.
type Bye struct {
	Code   uint16
	Reason string
}

// Customary Bye status codes.
const (
	ByeCodeShutdown    = 200 // clean user-initiated shutdown
	ByeCodeMaintenance = 201 // leaving to rebalance connections
)

func (b *Bye) encode(dst []byte) []byte {
	var s [2]byte
	binary.LittleEndian.PutUint16(s[:], b.Code)
	dst = append(dst, s[:]...)
	dst = append(dst, b.Reason...)
	return append(dst, 0)
}

func decodeBye(b []byte) (*Bye, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("gmsg: bye payload too short: %d bytes", len(b))
	}
	out := &Bye{Code: binary.LittleEndian.Uint16(b[0:2])}
	rest := b[2:]
	i := 0
	for i < len(rest) && rest[i] != 0 {
		i++
	}
	if i == len(rest) {
		return nil, fmt.Errorf("gmsg: bye reason not null-terminated")
	}
	out.Reason = string(rest[:i])
	return out, nil
}

// Query is a search request: minimum speed and the search criteria string.
type Query struct {
	MinSpeed uint16
	Criteria string
}

func (q *Query) encode(dst []byte) []byte {
	var s [2]byte
	binary.LittleEndian.PutUint16(s[:], q.MinSpeed)
	dst = append(dst, s[:]...)
	dst = append(dst, q.Criteria...)
	return append(dst, 0)
}

func decodeQuery(b []byte) (*Query, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("gmsg: query payload too short: %d bytes", len(b))
	}
	q := &Query{MinSpeed: binary.LittleEndian.Uint16(b[0:2])}
	rest := b[2:]
	// Criteria is null-terminated; anything after the null is a GGEP/HUGE
	// extension block, which we accept and ignore.
	i := 0
	for i < len(rest) && rest[i] != 0 {
		i++
	}
	if i == len(rest) {
		return nil, fmt.Errorf("gmsg: query criteria not null-terminated")
	}
	q.Criteria = string(rest[:i])
	return q, nil
}

// Result is one file record inside a QueryHit.
type Result struct {
	FileIndex uint32
	FileSize  uint32
	FileName  string
}

// QueryHit carries search results plus the responding servent's identity.
type QueryHit struct {
	Port      uint16
	IP        [4]byte
	Speed     uint32
	Results   []Result
	ServentID GUID
}

func (qh *QueryHit) encode(dst []byte) []byte {
	dst = append(dst, byte(len(qh.Results)))
	var buf [10]byte
	binary.LittleEndian.PutUint16(buf[0:2], qh.Port)
	copy(buf[2:6], qh.IP[:])
	binary.LittleEndian.PutUint32(buf[6:10], qh.Speed)
	dst = append(dst, buf[:]...)
	for _, r := range qh.Results {
		var rb [8]byte
		binary.LittleEndian.PutUint32(rb[0:4], r.FileIndex)
		binary.LittleEndian.PutUint32(rb[4:8], r.FileSize)
		dst = append(dst, rb[:]...)
		dst = append(dst, r.FileName...)
		dst = append(dst, 0, 0) // name terminator + empty extension block
	}
	return append(dst, qh.ServentID[:]...)
}

func decodeQueryHit(b []byte) (*QueryHit, error) {
	if len(b) < 11+16 {
		return nil, fmt.Errorf("gmsg: queryhit payload too short: %d bytes", len(b))
	}
	qh := &QueryHit{}
	n := int(b[0])
	qh.Port = binary.LittleEndian.Uint16(b[1:3])
	copy(qh.IP[:], b[3:7])
	qh.Speed = binary.LittleEndian.Uint32(b[7:11])
	rest := b[11 : len(b)-16]
	copy(qh.ServentID[:], b[len(b)-16:])
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("gmsg: queryhit result %d truncated", i)
		}
		var r Result
		r.FileIndex = binary.LittleEndian.Uint32(rest[0:4])
		r.FileSize = binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		j := 0
		for j < len(rest) && rest[j] != 0 {
			j++
		}
		if j == len(rest) {
			return nil, fmt.Errorf("gmsg: queryhit result %d name not terminated", i)
		}
		r.FileName = string(rest[:j])
		rest = rest[j+1:]
		// Skip the extension block up to its null terminator.
		k := 0
		for k < len(rest) && rest[k] != 0 {
			k++
		}
		if k == len(rest) {
			return nil, fmt.Errorf("gmsg: queryhit result %d extensions not terminated", i)
		}
		rest = rest[k+1:]
		qh.Results = append(qh.Results, r)
	}
	return qh, nil
}

// Push asks a firewalled servent to open a connection back to the requester.
type Push struct {
	ServentID GUID
	FileIndex uint32
	IP        [4]byte
	Port      uint16
}

const pushSize = 26

func (p *Push) encode(dst []byte) []byte {
	dst = append(dst, p.ServentID[:]...)
	var buf [10]byte
	binary.LittleEndian.PutUint32(buf[0:4], p.FileIndex)
	copy(buf[4:8], p.IP[:])
	binary.LittleEndian.PutUint16(buf[8:10], p.Port)
	return append(dst, buf[:]...)
}

func decodePush(b []byte) (*Push, error) {
	if len(b) != pushSize {
		return nil, fmt.Errorf("gmsg: push payload is %d bytes, want %d", len(b), pushSize)
	}
	p := &Push{}
	copy(p.ServentID[:], b[0:16])
	p.FileIndex = binary.LittleEndian.Uint32(b[16:20])
	copy(p.IP[:], b[20:24])
	p.Port = binary.LittleEndian.Uint16(b[24:26])
	return p, nil
}

// Encode serializes m, computing Header.PayloadLen from the payload.
func Encode(m *Message) ([]byte, error) { return AppendEncode(nil, m) }

// AppendEncode appends the wire form of m to dst, computing
// Header.PayloadLen from the payload, and returns the extended slice; on
// error dst is returned unchanged. It grows dst at most once, so encoding
// into a reused buffer (AppendEncode(buf[:0], m)) stops allocating once the
// buffer has reached the largest descriptor's size.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	n, err := payloadSize(m)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, HeaderSize+n)
	h := m.Header
	h.PayloadLen = uint32(n)
	dst = EncodeHeader(dst, h)
	switch h.Type {
	case TypePong:
		dst = m.Pong.encode(dst)
	case TypeBye:
		dst = m.Bye.encode(dst)
	case TypeQuery:
		dst = m.Query.encode(dst)
	case TypeQueryHit:
		dst = m.QueryHit.encode(dst)
	case TypePush:
		dst = m.Push.encode(dst)
	}
	return dst, nil
}

// payloadSize is the encoded payload length of m. It rejects a message
// whose payload field does not match its type, or that the wire format
// cannot represent.
func payloadSize(m *Message) (int, error) {
	switch m.Header.Type {
	case TypePing:
		return 0, nil
	case TypePong:
		if m.Pong == nil {
			return 0, fmt.Errorf("gmsg: pong message without pong payload")
		}
		return pongSize, nil
	case TypeBye:
		if m.Bye == nil {
			return 0, fmt.Errorf("gmsg: bye message without bye payload")
		}
		return 2 + len(m.Bye.Reason) + 1, nil
	case TypeQuery:
		if m.Query == nil {
			return 0, fmt.Errorf("gmsg: query message without query payload")
		}
		return 2 + len(m.Query.Criteria) + 1, nil
	case TypeQueryHit:
		if m.QueryHit == nil {
			return 0, fmt.Errorf("gmsg: queryhit message without queryhit payload")
		}
		if len(m.QueryHit.Results) > 255 {
			return 0, fmt.Errorf("gmsg: queryhit with %d results exceeds 255", len(m.QueryHit.Results))
		}
		n := 1 + 10 + len(m.QueryHit.ServentID)
		for _, r := range m.QueryHit.Results {
			n += 8 + len(r.FileName) + 2
		}
		return n, nil
	case TypePush:
		if m.Push == nil {
			return 0, fmt.Errorf("gmsg: push message without push payload")
		}
		return pushSize, nil
	}
	return 0, fmt.Errorf("gmsg: unknown descriptor type 0x%02x", m.Header.Type)
}

// Decode parses one descriptor from b, returning the message and the number
// of bytes consumed.
func Decode(b []byte) (*Message, int, error) {
	m := new(Message)
	n, err := DecodeInto(m, b)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// DecodeInto is Decode into a caller-owned message, returning the number of
// bytes consumed. Every field of m is overwritten, but a Pong payload struct
// m already holds is reused: decoding pings and pongs into one message over
// and over allocates nothing. After an error the contents of m are
// unspecified.
func DecodeInto(m *Message, b []byte) (int, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return 0, err
	}
	total := HeaderSize + int(h.PayloadLen)
	if len(b) < total {
		return 0, fmt.Errorf("gmsg: truncated payload: have %d of %d bytes", len(b)-HeaderSize, h.PayloadLen)
	}
	payload := b[HeaderSize:total]
	pong := m.Pong
	*m = Message{Header: h}
	switch h.Type {
	case TypePing:
		if len(payload) != 0 {
			return 0, fmt.Errorf("gmsg: ping with %d-byte payload", len(payload))
		}
	case TypePong:
		if pong == nil {
			pong = new(Pong)
		}
		m.Pong = pong
		err = pong.decode(payload)
	case TypeBye:
		m.Bye, err = decodeBye(payload)
	case TypeQuery:
		m.Query, err = decodeQuery(payload)
	case TypeQueryHit:
		m.QueryHit, err = decodeQueryHit(payload)
	case TypePush:
		m.Push, err = decodePush(payload)
	}
	if err != nil {
		return 0, err
	}
	return total, nil
}

// WriteMessage encodes m and writes it to w.
func WriteMessage(w io.Writer, m *Message) error {
	b, err := Encode(m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadMessage reads exactly one descriptor from r.
func ReadMessage(r io.Reader) (*Message, error) {
	var hb [HeaderSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return nil, err
	}
	h, err := DecodeHeader(hb[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, HeaderSize+int(h.PayloadLen))
	copy(buf, hb[:])
	if _, err := io.ReadFull(r, buf[HeaderSize:]); err != nil {
		return nil, fmt.Errorf("gmsg: reading payload: %w", err)
	}
	m, _, err := Decode(buf)
	return m, err
}
