package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestObjectTraceRoundTrip(t *testing.T) {
	in := &ObjectTrace{
		Source: "unit-test",
		Peers:  3,
		Records: []ObjectRecord{
			{Peer: 0, Name: "Aaron Neville - I Don't Know Much.mp3"},
			{Peer: 0, Name: "01 Track.wma"},
			{Peer: 2, Name: "Some Band - Song (Live).mp3"},
		},
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadObjectTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestObjectTraceEmpty(t *testing.T) {
	in := &ObjectTrace{Source: "empty", Peers: 0}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadObjectTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 0 || out.Source != "empty" {
		t.Errorf("round trip: %+v", out)
	}
}

func TestObjectTraceRejectsTabs(t *testing.T) {
	in := &ObjectTrace{Source: "x", Records: []ObjectRecord{{Name: "bad\tname"}}}
	if err := in.Write(&bytes.Buffer{}); err == nil {
		t.Error("tab in name accepted")
	}
	in2 := &ObjectTrace{Source: "bad\nsource"}
	if err := in2.Write(&bytes.Buffer{}); err == nil {
		t.Error("newline in source accepted")
	}
}

func TestSongTraceRoundTrip(t *testing.T) {
	in := &SongTrace{
		Source: "itunes-test",
		Peers:  2,
		Records: []SongRecord{
			{Peer: 0, Track: "Blue Bayou", Artist: "Linda Ronstadt", Album: "Simple Dreams", Genre: "Rock"},
			{Peer: 1, Track: "Intro", Artist: "", Album: "", Genre: ""},
		},
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSongTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

func TestQueryTraceRoundTrip(t *testing.T) {
	in := &QueryTrace{
		Source:   "phex-test",
		Duration: 604800,
		Records: []QueryRecord{
			{Time: 0, Query: "aaron neville"},
			{Time: 59, Query: "madonna"},
			{Time: 604799, Query: "linda ronstadt blue bayou"},
		},
	}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadQueryTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestReadQueryTraceRejectsDamagedTimes: a record out of time order or
// outside [0, Duration) fails the read, and the error names the record.
func TestReadQueryTraceRejectsDamagedTimes(t *testing.T) {
	for name, c := range map[string]struct {
		body, record string
	}{
		"backwards":        {"0\ta\n5\tb\n4\tc\n", "record 2 "},
		"negative":         {"-1\ta\n0\tb\n1\tc\n", "record 0 "},
		"at duration":      {"0\ta\n1\tb\n60\tc\n", "record 2 "},
		"beyond duration":  {"0\ta\n99\tb\n99\tc\n", "record 1 "},
		"equal times pass": {"0\ta\n7\tb\n7\tc\n", ""},
	} {
		_, err := ReadQueryTrace(strings.NewReader(queryMagic + "\tsrc\t60\t3\n" + c.body))
		switch {
		case c.record == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case c.record != "" && (err == nil || !strings.Contains(err.Error(), c.record)):
			t.Errorf("%s: got %v, want an error naming %q", name, err, c.record)
		}
	}
}

func TestReadWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	(&ObjectTrace{Source: "x"}).Write(&buf)
	if _, err := ReadQueryTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("query reader accepted object trace")
	}
	if _, err := ReadSongTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("song reader accepted object trace")
	}
}

func TestReadTruncated(t *testing.T) {
	in := &ObjectTrace{Source: "x", Peers: 1,
		Records: []ObjectRecord{{Peer: 0, Name: "a.mp3"}, {Peer: 0, Name: "b.mp3"}}}
	var buf bytes.Buffer
	in.Write(&buf)
	full := buf.String()
	// Drop the last line.
	cut := full[:strings.LastIndex(strings.TrimRight(full, "\n"), "\n")+1]
	if _, err := ReadObjectTrace(strings.NewReader(cut)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestReadLineEnds: CRLF line ends read as LF ones, and a CR inside a
// line — which would land in a field Write refuses — fails the read.
func TestReadLineEnds(t *testing.T) {
	in := &ObjectTrace{Source: "x", Peers: 1, Records: []ObjectRecord{{Peer: 0, Name: "a.mp3"}}}
	var buf bytes.Buffer
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObjectTrace(strings.NewReader(strings.ReplaceAll(buf.String(), "\n", "\r\n")))
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Errorf("CRLF trace read as %+v, %v; want %+v", got, err, in)
	}
	if _, err := ReadObjectTrace(strings.NewReader(strings.Replace(buf.String(), "a.mp3", "a\r.mp3", 1))); err == nil {
		t.Error("CR inside a record accepted")
	}
}

func TestReadGarbage(t *testing.T) {
	for _, g := range []string{"", "garbage", "querycentric-objects/1\tx", "querycentric-objects/1\tx\tnotanum\t0\n"} {
		if _, err := ReadObjectTrace(strings.NewReader(g)); err == nil {
			t.Errorf("garbage %q accepted", g)
		}
	}
}

func TestReadBadRecord(t *testing.T) {
	bad := "querycentric-objects/1\tsrc\t1\t1\nnotanumber\tname.mp3\n"
	if _, err := ReadObjectTrace(strings.NewReader(bad)); err == nil {
		t.Error("non-numeric peer accepted")
	}
	bad2 := "querycentric-objects/1\tsrc\t1\t1\n0\n"
	if _, err := ReadObjectTrace(strings.NewReader(bad2)); err == nil {
		t.Error("missing field accepted")
	}
}

func TestQuickObjectRoundTrip(t *testing.T) {
	f := func(peer uint8, rawName string) bool {
		name := strings.Map(func(r rune) rune {
			if r == '\t' || r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, rawName)
		in := &ObjectTrace{Source: "q", Peers: 1,
			Records: []ObjectRecord{{Peer: int(peer), Name: name}}}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			return false
		}
		out, err := ReadObjectTrace(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObjectTraceWrite(b *testing.B) {
	tr := &ObjectTrace{Source: "bench", Peers: 100}
	for i := 0; i < 10000; i++ {
		tr.Records = append(tr.Records, ObjectRecord{Peer: i % 100, Name: "Artist Name - A Song Title (Remastered).mp3"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObjectTraceRead(b *testing.B) {
	tr := &ObjectTrace{Source: "bench", Peers: 100}
	for i := 0; i < 10000; i++ {
		tr.Records = append(tr.Records, ObjectRecord{Peer: i % 100, Name: "Artist Name - A Song Title (Remastered).mp3"})
	}
	var buf bytes.Buffer
	tr.Write(&buf)
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadObjectTrace(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadRejectsNegativeCounts: record counts come from len(), so a
// negative one is damage — including the "-1 = until EOF" header of the
// retired streaming writer, which no producer emits any more.
func TestReadRejectsNegativeCounts(t *testing.T) {
	_, streamed := ReadObjectTrace(strings.NewReader(objectMagic + "\tsrc\t-1\t-1\n0\tx.mp3\n"))
	_, objects := ReadObjectTrace(strings.NewReader(objectMagic + "\tsrc\t1\t-1\n"))
	_, songs := ReadSongTrace(strings.NewReader(songMagic + "\tsrc\t1\t-1\n"))
	_, queries := ReadQueryTrace(strings.NewReader(queryMagic + "\tsrc\t60\t-1\n"))
	for name, err := range map[string]error{"streamed header": streamed, "objects": objects, "songs": songs, "queries": queries} {
		if !errors.Is(err, strconv.ErrSyntax) {
			t.Errorf("%s: negative count gave %v, want strconv.ErrSyntax", name, err)
		}
	}
}

// TestReadBoundsPreallocationByInput: a header's record count is input,
// so a reader may not preallocate more than the rest of the input could
// hold. A 46-byte object trace claiming 2^31-1 records (48 GiB of
// records at face value) must fail typed — the second record is missing —
// after allocating under 1 MiB; so must the song and query formats, read
// from a sized reader and from one that hides its size.
func TestReadBoundsPreallocationByInput(t *testing.T) {
	const claim = "\tx\t1\t2147483647\n"
	cases := []struct {
		name  string
		input string
		read  func(io.Reader) error
	}{
		{"objects", objectMagic + claim + "0\ta.mp3\n", func(r io.Reader) error { _, err := ReadObjectTrace(r); return err }},
		{"songs", songMagic + claim + "0\tt\ta\tb\tg\n", func(r io.Reader) error { _, err := ReadSongTrace(r); return err }},
		{"queries", queryMagic + "\tsrc\t60\t2147483647\n0\tq\n", func(r io.Reader) error { _, err := ReadQueryTrace(r); return err }},
	}
	if n := len(cases[0].input); n != 46 {
		t.Fatalf("object trace is %d bytes, want 46", n)
	}
	for _, c := range cases {
		for _, sized := range []bool{true, false} {
			var r io.Reader = strings.NewReader(c.input)
			if !sized {
				r = io.MultiReader(r) // hides Len
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.read(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s (sized %v): got %v, want io.ErrUnexpectedEOF", c.name, sized, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s (sized %v): allocated %d bytes, want < 1 MiB", c.name, sized, got)
			}
		}
	}
}

// readTraceSeeds are FuzzReadTrace's seeds: the 46-byte object trace of
// TestReadBoundsPreallocationByInput, the same record under a 10M claim,
// one small trace of each kind as Write writes it, and a 300-record one,
// large enough that its per-record cost outweighs the readers' fixed one.
func readTraceSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		[]byte(objectMagic + "\tx\t1\t2147483647\n0\ta.mp3\n"),
		[]byte(objectMagic + "\tx\t1\t10000000\n0\ta.mp3\n"),
	}
	long := &ObjectTrace{Source: "crawl", Peers: 300}
	for i := range 300 {
		long.Records = append(long.Records, ObjectRecord{i, "f" + strconv.Itoa(i) + ".mp3"})
	}
	for _, tr := range []interface{ Write(io.Writer) error }{
		&ObjectTrace{Source: "crawl", Peers: 2, Records: []ObjectRecord{{0, "a b.mp3"}, {1, "c.mp3"}}},
		&SongTrace{Source: "itunes", Peers: 1, Records: []SongRecord{{0, "t", "a", "b", "g"}}},
		&QueryTrace{Source: "log", Duration: 60, Records: []QueryRecord{{0, "q"}, {59, "r s"}}},
		long,
	} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return seeds
}

// committedInputs reads the inputs committed under testdata/fuzz/<target>,
// each a one-value "go test fuzz v1" file holding a []byte.
func committedInputs(tb testing.TB, target string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no committed inputs for %s (%v)", target, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		head, val, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(val, "[]byte(")
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if head != "go test fuzz v1" || !ok || err != nil {
			tb.Fatalf("%s: not a one-[]byte corpus file (%v)", p, err)
		}
		out = append(out, []byte(b))
	}
	return out
}

// TestReadAllocatesByInput: on every FuzzReadTrace seed and committed
// input, each reader allocates at most readAllocPerByte bytes per input
// byte plus readAllocFixed, whether it returns a trace or an error. The
// fixed part is the scanner's 64 KiB line buffer and 1 KiB besides. The
// most any input here takes is 5.8 bytes per byte above that (the
// 300-record object trace: 88,256 bytes for 3,717). The committed
// song-claims-max-records input is a 1,017-byte song trace whose header
// claims 2^31-1 records: capped by a shared two-byte record minimum, its
// reader preallocated 110,320 bytes; capped by the song record's own
// six-byte minimum alone it would still take about 83,000 (72-byte
// records, 12 bytes per input byte), so the readers refuse such a header
// before reading any record.
func TestReadAllocatesByInput(t *testing.T) {
	const readAllocPerByte, readAllocFixed = 8, 64<<10 + 1<<10
	readers := []struct {
		name string
		read func(io.Reader) error
	}{
		{"objects", func(r io.Reader) error { _, err := ReadObjectTrace(r); return err }},
		{"songs", func(r io.Reader) error { _, err := ReadSongTrace(r); return err }},
		{"queries", func(r io.Reader) error { _, err := ReadQueryTrace(r); return err }},
	}
	for i, in := range append(readTraceSeeds(t), committedInputs(t, "FuzzReadTrace")...) {
		for _, rd := range readers {
			// The least of three reads: TotalAlloc also counts what other
			// goroutines of the test binary allocate meanwhile.
			got := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rd.read(bytes.NewReader(in))
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			if limit := uint64(readAllocPerByte*len(in) + readAllocFixed); got > limit {
				t.Errorf("input %d (%d bytes), %s reader: allocated %d bytes, bound %d", i, len(in), rd.name, got, limit)
			}
		}
	}
}

// FuzzReadTrace drives the three readers over one input: each returns a
// trace or an error, never a panic, and a trace one returns writes and
// reads back equal.
func FuzzReadTrace(f *testing.F) {
	for _, b := range readTraceSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if tr, err := ReadObjectTrace(bytes.NewReader(b)); err == nil {
			rereadEqual(t, tr, ReadObjectTrace)
		}
		if tr, err := ReadSongTrace(bytes.NewReader(b)); err == nil {
			rereadEqual(t, tr, ReadSongTrace)
		}
		if tr, err := ReadQueryTrace(bytes.NewReader(b)); err == nil {
			rereadEqual(t, tr, ReadQueryTrace)
		}
	})
}

// rereadEqual writes tr and fails t unless read returns an equal trace.
func rereadEqual[T interface{ Write(io.Writer) error }](t *testing.T, tr T, read func(io.Reader) (T, error)) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatalf("%T a reader returned does not write: %v", tr, err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("%T does not read back: %v", tr, err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("%T read back as %+v, want %+v", tr, back, tr)
	}
}
