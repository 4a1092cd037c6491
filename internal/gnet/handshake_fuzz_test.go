package gnet

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// splitParseTryUltrapeers is the X-Try-Ultrapeers parser before the
// strings.Cut walk, kept as the reference: split on commas, trim, skip
// empty and malformed entries.
func splitParseTryUltrapeers(v string) []Addr {
	var out []Addr
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		a, err := splitParseAddr(part)
		if err != nil {
			continue
		}
		out = append(out, a)
	}
	return out
}

// splitParseAddr is the reference ParseAddr: the host split on dots into
// exactly four octets.
func splitParseAddr(s string) (Addr, error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return Addr{}, fmt.Errorf("gnet: address %q missing port", s)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return Addr{}, fmt.Errorf("gnet: bad port in %q", s)
	}
	octets := strings.Split(host, ".")
	if len(octets) != 4 {
		return Addr{}, fmt.Errorf("gnet: bad IPv4 in %q", s)
	}
	var a Addr
	for i, o := range octets {
		v, err := strconv.ParseUint(o, 10, 8)
		if err != nil {
			return Addr{}, fmt.Errorf("gnet: bad octet in %q", s)
		}
		a.IP[i] = byte(v)
	}
	a.Port = uint16(port)
	return a, nil
}

// sprintfAddr is the reference Addr.String.
func sprintfAddr(a Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

// FuzzTryUltrapeers checks the X-Try-Ultrapeers codec against its
// references. For an arbitrary header value, ParseTryUltrapeers returns what
// the split parser returns, and ParseAddr accepts, rejects (with the same
// message) and decodes every comma-separated entry as the reference does.
// For an arbitrary address list (six bytes an address), Addr.String is the
// Sprintf form, FormatTryUltrapeers joins exactly those, and parsing the
// formatted header gives the list back.
func FuzzTryUltrapeers(f *testing.F) {
	f.Add("10.0.0.1:6346,10.0.1.44:6346", []byte{10, 0, 0, 1, 0xca, 0x18})
	f.Add(" 1.2.3.4:5 , ,x,1.2.3:4,1.2.3.4.5:6,256.1.1.1:1,1.1.1.1:65536,+1.2.3.4:5,1.2.3.4:", []byte{})
	f.Add("001.02.3.4:0006346,\t9.9.9.9:9\n,:,.:.,...:", []byte{255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, hdr string, raw []byte) {
		if got, want := ParseTryUltrapeers(hdr), splitParseTryUltrapeers(hdr); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("ParseTryUltrapeers(%q) = %v, reference %v", hdr, got, want)
		}
		for _, part := range strings.Split(hdr, ",") {
			got, gerr := ParseAddr(part)
			want, werr := splitParseAddr(part)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("ParseAddr(%q) = %v, %v; reference %v, %v", part, got, gerr, want, werr)
			}
		}

		addrs := make([]Addr, len(raw)/6)
		ref := make([]string, len(addrs))
		for i := range addrs {
			b := raw[6*i:]
			addrs[i] = Addr{IP: [4]byte{b[0], b[1], b[2], b[3]}, Port: uint16(b[4])<<8 | uint16(b[5])}
			ref[i] = sprintfAddr(addrs[i])
			if s := addrs[i].String(); s != ref[i] {
				t.Fatalf("Addr.String = %q, reference %q", s, ref[i])
			}
		}
		formatted := FormatTryUltrapeers(addrs)
		if want := strings.Join(ref, ","); formatted != want {
			t.Fatalf("FormatTryUltrapeers = %q, reference %q", formatted, want)
		}
		if back := ParseTryUltrapeers(formatted); !slices.Equal(back, addrs) {
			t.Fatalf("Parse(Format(%v)) = %v", addrs, back)
		}
	})
}
