package gnet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The GNUTELLA/0.6 handshake is a three-way, HTTP-header-style exchange:
//
//	client: GNUTELLA CONNECT/0.6\r\n<headers>\r\n\r\n
//	server: GNUTELLA/0.6 <code> <message>\r\n<headers>\r\n\r\n
//	client: GNUTELLA/0.6 200 OK\r\n\r\n
//
// Crawlers such as Cruiser exploit the X-Try-Ultrapeers response header,
// which lists other peers' addresses, to walk the topology without joining
// it; internal/crawler does the same here.

// Handshake carries the outcome of one handshake from either side.
type Handshake struct {
	Code    int               // response code (200 = accepted)
	Message string            // response message text
	Headers map[string]string // peer's headers, keys lowercased
}

// StatusBusy is the customary refusal code for a saturated peer.
const StatusBusy = 503

// Connect performs the client side of the handshake, sending hdrs and
// returning the server's response. A non-200 response is returned as a
// *RejectedError (the Handshake is still populated).
func Connect(rw io.ReadWriter, hdrs map[string]string) (*Handshake, error) {
	var b strings.Builder
	b.WriteString("GNUTELLA CONNECT/0.6\r\n")
	writeHeaders(&b, hdrs)
	b.WriteString("\r\n")
	if _, err := io.WriteString(rw, b.String()); err != nil {
		return nil, fmt.Errorf("gnet: handshake write: %w", err)
	}
	br := bufio.NewReader(rw)
	code, msg, respHdrs, err := readResponse(br)
	if err != nil {
		return nil, err
	}
	h := &Handshake{Code: code, Message: msg, Headers: respHdrs}
	if code != 200 {
		return h, &RejectedError{Code: code, Message: msg}
	}
	if _, err := io.WriteString(rw, "GNUTELLA/0.6 200 OK\r\n\r\n"); err != nil {
		return nil, fmt.Errorf("gnet: handshake confirm: %w", err)
	}
	return h, nil
}

// Accept performs the server side: it reads the client's request, responds
// with code (200 accepts; anything else rejects and ends the handshake) and
// hdrs, and on acceptance consumes the client's confirmation line. The
// returned Handshake carries the client's headers.
func Accept(rw io.ReadWriter, code int, hdrs map[string]string) (*Handshake, error) {
	br := bufio.NewReader(rw)
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("gnet: handshake read: %w", err)
	}
	if line != "GNUTELLA CONNECT/0.6" {
		return nil, fmt.Errorf("gnet: unexpected handshake greeting %q", line)
	}
	clientHdrs, err := readHeaderBlock(br)
	if err != nil {
		return nil, err
	}
	msg := "OK"
	if code != 200 {
		msg = "Service Unavailable"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "GNUTELLA/0.6 %d %s\r\n", code, msg)
	writeHeaders(&b, hdrs)
	b.WriteString("\r\n")
	if _, err := io.WriteString(rw, b.String()); err != nil {
		return nil, fmt.Errorf("gnet: handshake write: %w", err)
	}
	h := &Handshake{Code: code, Message: msg, Headers: clientHdrs}
	if code != 200 {
		return h, nil
	}
	ccode, _, _, err := readResponse(br)
	if err != nil {
		return nil, fmt.Errorf("gnet: reading confirmation: %w", err)
	}
	if ccode != 200 {
		return h, &RejectedError{Code: ccode, Message: "client declined"}
	}
	return h, nil
}

// RejectedError reports a non-200 handshake response.
type RejectedError struct {
	Code    int
	Message string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("gnet: handshake rejected: %d %s", e.Code, e.Message)
}

func writeHeaders(b *strings.Builder, hdrs map[string]string) {
	keys := make([]string, 0, len(hdrs))
	for k := range hdrs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic wire output
	for _, k := range keys {
		fmt.Fprintf(b, "%s: %s\r\n", k, hdrs[k])
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readHeaderBlock(br *bufio.Reader) (map[string]string, error) {
	hdrs := map[string]string{}
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("gnet: reading headers: %w", err)
		}
		if line == "" {
			return hdrs, nil
		}
		i := strings.IndexByte(line, ':')
		if i < 0 {
			return nil, fmt.Errorf("gnet: malformed header line %q", line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:i]))
		hdrs[key] = strings.TrimSpace(line[i+1:])
	}
}

func readResponse(br *bufio.Reader) (code int, msg string, hdrs map[string]string, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, "", nil, fmt.Errorf("gnet: reading response: %w", err)
	}
	if !strings.HasPrefix(line, "GNUTELLA/0.6 ") {
		return 0, "", nil, fmt.Errorf("gnet: malformed response line %q", line)
	}
	rest := strings.TrimPrefix(line, "GNUTELLA/0.6 ")
	parts := strings.SplitN(rest, " ", 2)
	code, err = strconv.Atoi(parts[0])
	if err != nil {
		return 0, "", nil, fmt.Errorf("gnet: malformed response code in %q", line)
	}
	if len(parts) == 2 {
		msg = parts[1]
	}
	hdrs, err = readHeaderBlock(br)
	return code, msg, hdrs, err
}

// FormatTryUltrapeers renders addresses for the X-Try-Ultrapeers header.
func FormatTryUltrapeers(addrs []Addr) string {
	var b strings.Builder
	b.Grow(len(addrs) * (maxAddrLen + 1))
	var buf [maxAddrLen]byte
	for i, a := range addrs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(a.appendTo(buf[:0]))
	}
	return b.String()
}

// ParseTryUltrapeers parses an X-Try-Ultrapeers header value. Malformed
// entries are skipped, as deployed clients do.
func ParseTryUltrapeers(v string) []Addr { return appendTryUltrapeers(nil, v) }

// appendTryUltrapeers appends the well-formed addresses of the header value
// v to dst: comma-separated entries, each trimmed of surrounding space,
// with empty and malformed ones skipped.
func appendTryUltrapeers(dst []Addr, v string) []Addr {
	for more := true; more; {
		var part string
		part, v, more = strings.Cut(v, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if a, err := ParseAddr(part); err == nil {
			dst = append(dst, a)
		}
	}
	return dst
}

// ParseAddr parses "a.b.c.d:port".
func ParseAddr(s string) (Addr, error) {
	host, portStr, ok := strings.Cut(s, ":")
	if !ok {
		return Addr{}, fmt.Errorf("gnet: address %q missing port", s)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return Addr{}, fmt.Errorf("gnet: bad port in %q", s)
	}
	// Exactly four dot-separated octets, counted before any is parsed.
	var octets [4]string
	for i := range octets[:3] {
		if octets[i], host, ok = strings.Cut(host, "."); !ok {
			return Addr{}, fmt.Errorf("gnet: bad IPv4 in %q", s)
		}
	}
	if strings.Contains(host, ".") {
		return Addr{}, fmt.Errorf("gnet: bad IPv4 in %q", s)
	}
	octets[3] = host
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
