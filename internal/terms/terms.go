// Package terms implements the two string normalizations the paper's
// analyses rely on: the Gnutella protocol tokenization mechanism used to
// split file names and query strings into terms (Figure 3 and Section IV),
// and the file-name sanitization (lowercasing and stripping special
// characters) used for Figure 2.
package terms

import (
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// MinTokenLength is the shortest token the protocol tokenization keeps,
// matching Gnutella query-routing practice of dropping one-character
// fragments.
const MinTokenLength = 2

// Tokenize splits s the way Gnutella splits file names and query strings
// for keyword matching: Unicode letter/digit runs, lowercased, with tokens
// shorter than MinTokenLength dropped. The result preserves order and may
// contain duplicates (callers needing a set use TokenSet). It is
// AppendTokens with each token cut into its own string; the strings share
// one backing array.
func Tokenize(s string) []string {
	buf := AppendTokens(make([]byte, 0, len(s)), s)
	if len(buf) == 0 {
		return nil
	}
	// buf is never written again, so the tokens can view it directly.
	all := unsafe.String(&buf[0], len(buf))
	out := make([]string, 0, strings.Count(all, "\x00"))
	for len(all) > 0 {
		k := strings.IndexByte(all, 0)
		out = append(out, all[:k])
		all = all[k+1:]
	}
	return out
}

// AppendTokens appends the tokens of s — Tokenize's, in order — to dst,
// each lowered and followed by a zero byte (no letter or digit encodes to
// one), and returns the extended buffer. It allocates nothing beyond dst's
// growth, so a caller that reuses dst tokenizes any number of names
// without garbage. Lowering goes rune by rune, as strings.ToLower does, and
// a rune counts as a letter or digit by its lowered form; an invalid UTF-8
// byte separates tokens, like the U+FFFD strings.ToLower would put there.
func AppendTokens(dst []byte, s string) []byte {
	start, runes := len(dst), 0 // the open token's first byte and rune count
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			if l := asciiToken[c]; l != 0 {
				dst = append(dst, l)
				runes++
				continue
			}
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			i += w
			if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
				dst = utf8.AppendRune(dst, r)
				runes++
				continue
			}
		}
		dst = closeToken(dst, start, runes)
		start, runes = len(dst), 0
	}
	return closeToken(dst, start, runes)
}

// closeToken ends the token that began at dst[start] and holds runes
// runes: terminated if it is long enough to keep, else cut off.
func closeToken(dst []byte, start, runes int) []byte {
	switch {
	case runes >= MinTokenLength:
		return append(dst, 0)
	case runes > 0:
		return dst[:start]
	}
	return dst
}

// asciiToken maps each ASCII byte to its lowered form when it is a letter
// or digit, and to zero when it separates tokens.
var asciiToken = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			t[c] = byte(c)
		case c >= 'A' && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		}
	}
	return t
}()

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	toks := Tokenize(s)
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

// Matches reports whether every token of query appears in the token set of
// name — the Gnutella keyword-match rule ("the system searched for all
// objects that matched the set of terms in the query string"). A query with
// no tokens matches nothing.
func Matches(queryTokens []string, nameTokens map[string]struct{}) bool {
	if len(queryTokens) == 0 {
		return false
	}
	for _, q := range queryTokens {
		if _, ok := nameTokens[q]; !ok {
			return false
		}
	}
	return true
}

// Sanitize normalizes a file name the way the paper's Figure 2 analysis
// does: lowercase, with capitalization and special characters (dashes,
// apostrophes, spaces, punctuation) removed. Only letters and digits
// survive.
func Sanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
		}
	}
	return b.String()
}
