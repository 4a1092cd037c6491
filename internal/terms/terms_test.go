package terms

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Aaron Neville - I Don't Know Much.mp3",
			[]string{"aaron", "neville", "don", "know", "much", "mp3"}},
		{"01 Track.wma", []string{"01", "track", "wma"}},
		{"", nil},
		{"---", nil},
		{"a b c", nil}, // all below minimum length
		{"ab", []string{"ab"}},
		{"The_Quick_Brown_Fox", []string{"the", "quick", "brown", "fox"}},
		{"AC/DC", []string{"ac", "dc"}},
		{"Don't", []string{"don"}},
		{"über straße", []string{"über", "straße"}},
	}
	for _, tc := range tests {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MADONNA Like A PRAYER.MP3") {
		for _, r := range tok {
			if unicode.IsUpper(r) {
				t.Fatalf("token %q contains uppercase", tok)
			}
		}
	}
}

func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if utf8.RuneCountInString(tok) < MinTokenLength {
				return false
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// tokenizeReference is the tokenizer AppendTokens replaced: lower the whole
// string, then cut it into letter/digit runs of at least MinTokenLength
// runes.
func tokenizeReference(s string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(s)
	keep := func(tok string) {
		if utf8.RuneCountInString(tok) >= MinTokenLength {
			out = append(out, tok)
		}
	}
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			keep(lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		keep(lower[start:])
	}
	return out
}

// TestTokenizeMatchesReference holds the single-pass tokenizer to the
// lower-then-split reference: on runes whose lowered form changes byte
// length or leaves ASCII (U+023A, U+212A KELVIN SIGN, U+0130), on invalid
// UTF-8, on separators of every width, and on random strings.
func TestTokenizeMatchesReference(t *testing.T) {
	cases := []string{
		"", "a", "ab", "AB", "Ⱥb", "\u212aelvin", "\u0130stanbul", "x\xffy", "xx\xffyy",
		"ab\xc3", "\xc3\xa9t\xc3\xa9", "日本語 テスト", "ǅungla ǈj", "x\u00a0y zz\u2003ww",
		"Aaron Neville - I Don't Know Much.MP3", "a1-b2_c3 \ufffd dd",
	}
	check := func(s string) bool {
		got, want := Tokenize(s), tokenizeReference(s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(%q) = %q, reference %q", s, got, want)
			return false
		}
		buf := AppendTokens([]byte("keep"), s)
		if n := strings.Count(string(buf[4:]), "\x00"); string(buf[:4]) != "keep" || n != len(want) {
			t.Errorf("AppendTokens(%q) = %q: prefix or token count wrong", s, buf)
			return false
		}
		return true
	}
	for _, s := range cases {
		check(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendTokensAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendTokens(buf[:0], "Aaron Neville ft. Linda Ronstadt - Ünder Straße.MP3")
	})
	if allocs != 0 {
		t.Fatalf("AppendTokens allocated %.1f times per call into a reused buffer", allocs)
	}
}

func TestTokenSet(t *testing.T) {
	set := TokenSet("love love me do")
	if len(set) != 3 { // love, me, do — duplicates collapse
		t.Fatalf("set size %d, want 3", len(set))
	}
	if _, ok := set["love"]; !ok {
		t.Error("missing token love")
	}
}

func TestMatches(t *testing.T) {
	name := TokenSet("Aaron Neville - I Don't Know Much.mp3")
	tests := []struct {
		query string
		want  bool
	}{
		{"aaron neville", true},
		{"AARON", true},
		{"neville much", true},
		{"aaron ronstadt", false},
		{"", false},
		{"---", false},
		{"mp3", true},
	}
	for _, tc := range tests {
		if got := Matches(Tokenize(tc.query), name); got != tc.want {
			t.Errorf("Matches(%q) = %v, want %v", tc.query, got, tc.want)
		}
	}
}

func TestMatchesSubsetProperty(t *testing.T) {
	// Any non-empty subset of a name's tokens must match the name.
	name := "the quick brown fox jumps over the lazy dog"
	set := TokenSet(name)
	toks := Tokenize(name)
	for i := range toks {
		if !Matches(toks[i:i+1], set) {
			t.Errorf("single token %q does not match its own name", toks[i])
		}
	}
	if !Matches(toks, set) {
		t.Error("full token list does not match its own name")
	}
}

func TestSanitize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Aaron Neville - I Don't Know Much.mp3", "aaronnevilleidontknowmuchmp3"},
		{"AARON NEVILLE- i dont know much.MP3", "aaronnevilleidontknowmuchmp3"},
		{"", ""},
		{"123-456", "123456"},
		{"ÜBER", "über"},
	}
	for _, tc := range tests {
		if got := Sanitize(tc.in); got != tc.want {
			t.Errorf("Sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSanitizeCollapsesCaseAndPunctVariants(t *testing.T) {
	variants := []string{
		"Aaron Neville - I Dont Know Much.mp3",
		"aaron neville - i dont know much.MP3",
		"Aaron Neville- I Dont Know Much.mp3",
		"AARON NEVILLE  -  I DONT KNOW MUCH.mp3",
	}
	want := Sanitize(variants[0])
	for _, v := range variants[1:] {
		if got := Sanitize(v); got != want {
			t.Errorf("variant %q sanitized to %q, want %q", v, got, want)
		}
	}
}

func TestSanitizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		once := Sanitize(s)
		return Sanitize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := "Aaron Neville and Linda Ronstadt - I Don't Know Much (But I Know I Love You).mp3"
	for i := 0; i < b.N; i++ {
		Tokenize(s)
	}
}

func BenchmarkSanitize(b *testing.B) {
	s := "Aaron Neville and Linda Ronstadt - I Don't Know Much (But I Know I Love You).mp3"
	for i := 0; i < b.N; i++ {
		Sanitize(s)
	}
}
