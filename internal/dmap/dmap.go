// Package dmap implements the DMAP tag-length-value encoding that Apple's
// DAAP (iTunes sharing) protocol carries over HTTP.
//
// Every node is an 8-byte header — a 4-character content code and a
// big-endian 32-bit length — followed by the payload: an integer, a UTF-8
// string, or a concatenation of child nodes for container codes. The subset
// of content codes registered here covers what the AppleRecords-style
// crawler (internal/daap) needs: server info, login/session, database and
// item listings with the song annotations the paper analyzed (name, artist,
// album, genre).
package dmap

import (
	"encoding/binary"
	"fmt"
)

// Kind is a node's payload type.
type Kind int

const (
	KindContainer Kind = iota // children
	KindString                // UTF-8 string
	KindUint                  // big-endian unsigned integer, 1/2/4/8 bytes
	KindVersion               // 4-byte version
	KindRaw                   // unregistered code: opaque bytes
)

// registry maps known content codes to kinds. Codes outside the registry
// decode as KindRaw (opaque), as real clients do for unknown codes.
var registry = map[string]Kind{
	// Top-level containers.
	"msrv": KindContainer, // server info response
	"mlog": KindContainer, // login response
	"avdb": KindContainer, // database listing
	"adbs": KindContainer, // database songs
	"mlcl": KindContainer, // listing
	"mlit": KindContainer, // listing item

	// Status / counts / ids.
	"mstt": KindUint, // status code
	"mlid": KindUint, // session id
	"miid": KindUint, // item id
	"mtco": KindUint, // total count
	"mrco": KindUint, // returned count
	"muty": KindUint, // update type
	"msup": KindUint, // supports update
	"mslr": KindUint, // login required
	"msau": KindUint, // authentication method
	"mstm": KindUint, // timeout interval

	// Versions.
	"mpro": KindVersion, // dmap protocol version
	"apro": KindVersion, // daap protocol version

	// Strings: the annotations the paper analyzed.
	"minm": KindString, // item / server name
	"asar": KindString, // song artist
	"asal": KindString, // song album
	"asgn": KindString, // song genre
	"asfm": KindString, // song format

	// Song numerics.
	"astm": KindUint, // song time (ms)
	"assr": KindUint, // sample rate
	"asbr": KindUint, // bitrate
	"assz": KindUint, // size in bytes
	"astn": KindUint, // track number
	"asur": KindUint, // user rating
}

// Node is one decoded DMAP element.
type Node struct {
	Code     string
	Kind     Kind
	Uint     uint64  // KindUint / KindVersion
	Str      string  // KindString
	Raw      []byte  // KindRaw
	Children []*Node // KindContainer
	uintSize int     // encoded width for KindUint (defaults to 4)
}

// Container builds a container node.
func Container(code string, children ...*Node) *Node {
	return &Node{Code: code, Kind: KindContainer, Children: children}
}

// String builds a string node.
func String(code, s string) *Node {
	return &Node{Code: code, Kind: KindString, Str: s}
}

// Uint builds an unsigned integer node encoded in size bytes (1, 2, 4, 8).
func Uint(code string, v uint64, size int) *Node {
	return &Node{Code: code, Kind: KindUint, Uint: v, uintSize: size}
}

// Uint32 builds a 4-byte unsigned integer node.
func Uint32(code string, v uint32) *Node { return Uint(code, uint64(v), 4) }

// Version builds a version node from major.minor.
func Version(code string, major, minor uint16) *Node {
	return &Node{Code: code, Kind: KindVersion, Uint: uint64(major)<<16 | uint64(minor)}
}

// Child returns the first direct child with the given code, or nil.
func (n *Node) Child(code string) *Node {
	for _, c := range n.Children {
		if c.Code == code {
			return c
		}
	}
	return nil
}

// ChildString returns the string value of the named child ("" if absent).
func (n *Node) ChildString(code string) string {
	if c := n.Child(code); c != nil {
		return c.Str
	}
	return ""
}

// ChildUint returns the integer value of the named child (0 if absent).
func (n *Node) ChildUint(code string) uint64 {
	if c := n.Child(code); c != nil {
		return c.Uint
	}
	return 0
}

// Encode serializes the node tree.
func Encode(n *Node) ([]byte, error) {
	return appendNode(nil, n)
}

func appendNode(dst []byte, n *Node) ([]byte, error) {
	if len(n.Code) != 4 {
		return nil, fmt.Errorf("dmap: content code %q is not 4 bytes", n.Code)
	}
	var payload []byte
	var err error
	switch n.Kind {
	case KindContainer:
		for _, c := range n.Children {
			if payload, err = appendNode(payload, c); err != nil {
				return nil, err
			}
		}
	case KindString:
		payload = []byte(n.Str)
	case KindUint:
		size := n.uintSize
		if size == 0 {
			size = 4
		}
		switch size {
		case 1:
			payload = []byte{byte(n.Uint)}
		case 2:
			payload = binary.BigEndian.AppendUint16(nil, uint16(n.Uint))
		case 4:
			payload = binary.BigEndian.AppendUint32(nil, uint32(n.Uint))
		case 8:
			payload = binary.BigEndian.AppendUint64(nil, n.Uint)
		default:
			return nil, fmt.Errorf("dmap: invalid uint size %d for %s", size, n.Code)
		}
	case KindVersion:
		payload = binary.BigEndian.AppendUint32(nil, uint32(n.Uint))
	case KindRaw:
		payload = n.Raw
	default:
		return nil, fmt.Errorf("dmap: unknown kind %d for %s", n.Kind, n.Code)
	}
	dst = append(dst, n.Code...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// Decode parses exactly one node (and its subtree) from b, requiring the
// whole buffer to be consumed.
func Decode(b []byte) (*Node, error) {
	n, rest, err := decodeOne(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("dmap: %d trailing bytes after %s", len(rest), n.Code)
	}
	return n, nil
}

func decodeOne(b []byte) (*Node, []byte, error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("dmap: truncated header: %d bytes", len(b))
	}
	code := string(b[0:4])
	length := binary.BigEndian.Uint32(b[4:8])
	if uint32(len(b)-8) < length {
		return nil, nil, fmt.Errorf("dmap: %s payload truncated: want %d, have %d", code, length, len(b)-8)
	}
	payload := b[8 : 8+length]
	rest := b[8+length:]
	kind, known := registry[code]
	if !known {
		raw := make([]byte, len(payload))
		copy(raw, payload)
		return &Node{Code: code, Kind: KindRaw, Raw: raw}, rest, nil
	}
	n := &Node{Code: code, Kind: kind}
	switch kind {
	case KindContainer:
		inner := payload
		for len(inner) > 0 {
			child, r, err := decodeOne(inner)
			if err != nil {
				return nil, nil, fmt.Errorf("dmap: in %s: %w", code, err)
			}
			n.Children = append(n.Children, child)
			inner = r
		}
	case KindString:
		n.Str = string(payload)
	case KindUint:
		switch len(payload) {
		case 1:
			n.Uint = uint64(payload[0])
		case 2:
			n.Uint = uint64(binary.BigEndian.Uint16(payload))
		case 4:
			n.Uint = uint64(binary.BigEndian.Uint32(payload))
		case 8:
			n.Uint = binary.BigEndian.Uint64(payload)
		default:
			return nil, nil, fmt.Errorf("dmap: %s has invalid integer width %d", code, len(payload))
		}
		n.uintSize = len(payload)
	case KindVersion:
		if len(payload) != 4 {
			return nil, nil, fmt.Errorf("dmap: %s has invalid version width %d", code, len(payload))
		}
		n.Uint = uint64(binary.BigEndian.Uint32(payload))
	}
	return n, rest, nil
}
