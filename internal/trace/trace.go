// Package trace defines the on-disk trace formats that connect the
// collection tools (Gnutella crawler, iTunes crawler, query logger) to the
// analyses, mirroring the paper's methodology where trace files were the
// interface between measurement and analysis.
//
// Three record kinds exist:
//
//   - ObjectRecord: one (peer, shared file name) observation from a
//     Gnutella file crawl.
//   - SongRecord: one annotated song observation from an iTunes share
//     crawl (track/artist/album/genre).
//   - QueryRecord: one timestamped query string from the query logger.
//
// Traces serialize to a line-oriented, tab-separated text format with a
// single header line, so they stream, diff and grep well. Tabs and newlines
// never occur in generated names; Write rejects records containing them
// rather than corrupting the framing.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ObjectRecord is one crawled (peer, file name) pair.
type ObjectRecord struct {
	Peer int
	Name string
}

// ObjectTrace is a complete Gnutella file-crawl observation.
type ObjectTrace struct {
	Source  string // free-form provenance, e.g. "gnutella-sim-crawl"
	Peers   int    // number of peers successfully crawled
	Records []ObjectRecord
}

// SongRecord is one crawled iTunes share entry.
type SongRecord struct {
	Peer   int
	Track  string
	Artist string
	Album  string
	Genre  string
}

// SongTrace is a complete iTunes share-crawl observation.
type SongTrace struct {
	Source  string
	Peers   int // shares successfully read
	Records []SongRecord
}

// QueryRecord is one observed query.
type QueryRecord struct {
	Time  int64 // seconds since trace start
	Query string
}

// QueryTrace is a query log covering [0, Duration) seconds.
type QueryTrace struct {
	Source   string
	Duration int64
	Records  []QueryRecord
}

const (
	objectMagic = "querycentric-objects/1"
	songMagic   = "querycentric-songs/1"
	queryMagic  = "querycentric-queries/1"
)

func checkField(kind, s string) error {
	if strings.ContainsAny(s, "\t\n\r") {
		return fmt.Errorf("trace: %s contains tab or newline: %q", kind, s)
	}
	return nil
}

// Write serializes the trace.
func (t *ObjectTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := checkField("source", t.Source); err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\t%s\t%d\t%d\n", objectMagic, t.Source, t.Peers, len(t.Records))
	for _, r := range t.Records {
		if err := checkField("object name", r.Name); err != nil {
			return err
		}
		fmt.Fprintf(bw, "%d\t%s\n", r.Peer, r.Name)
	}
	return bw.Flush()
}

// ReadObjectTrace parses a trace written by Write.
func ReadObjectTrace(r io.Reader) (*ObjectTrace, error) {
	t := &ObjectTrace{}
	err := readTrace(r, objectMagic, 2, func(h []string) (err error) {
		t.Source = h[1]
		t.Peers, err = headerCount("peer", h[2])
		return err
	}, func(n int) { t.Records = make([]ObjectRecord, 0, n) }, func(i int, f []string) error {
		peer, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("trace: record %d peer: %w", i, err)
		}
		t.Records = append(t.Records, ObjectRecord{Peer: peer, Name: f[1]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Write serializes the trace.
func (t *SongTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := checkField("source", t.Source); err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\t%s\t%d\t%d\n", songMagic, t.Source, t.Peers, len(t.Records))
	for _, r := range t.Records {
		for _, f := range []string{r.Track, r.Artist, r.Album, r.Genre} {
			if err := checkField("song field", f); err != nil {
				return err
			}
		}
		fmt.Fprintf(bw, "%d\t%s\t%s\t%s\t%s\n", r.Peer, r.Track, r.Artist, r.Album, r.Genre)
	}
	return bw.Flush()
}

// ReadSongTrace parses a trace written by Write.
func ReadSongTrace(r io.Reader) (*SongTrace, error) {
	t := &SongTrace{}
	err := readTrace(r, songMagic, 5, func(h []string) (err error) {
		t.Source = h[1]
		t.Peers, err = headerCount("peer", h[2])
		return err
	}, func(n int) { t.Records = make([]SongRecord, 0, n) }, func(i int, f []string) error {
		peer, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("trace: record %d peer: %w", i, err)
		}
		t.Records = append(t.Records, SongRecord{Peer: peer, Track: f[1], Artist: f[2], Album: f[3], Genre: f[4]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Write serializes the trace.
func (t *QueryTrace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := checkField("source", t.Source); err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\t%s\t%d\t%d\n", queryMagic, t.Source, t.Duration, len(t.Records))
	for _, r := range t.Records {
		if err := checkField("query", r.Query); err != nil {
			return err
		}
		fmt.Fprintf(bw, "%d\t%s\n", r.Time, r.Query)
	}
	return bw.Flush()
}

// ReadQueryTrace parses a trace written by Write. Records must be in
// non-decreasing time within [0, Duration), the order the interval
// analyses consume them in; a record that breaks it is an error naming
// the record.
func ReadQueryTrace(r io.Reader) (*QueryTrace, error) {
	t := &QueryTrace{}
	err := readTrace(r, queryMagic, 2, func(h []string) (err error) {
		t.Source = h[1]
		if t.Duration, err = strconv.ParseInt(h[2], 10, 64); err != nil {
			return fmt.Errorf("trace: bad duration: %w", err)
		}
		return nil
	}, func(n int) { t.Records = make([]QueryRecord, 0, n) }, func(i int, f []string) error {
		ts, err := strconv.ParseInt(f[0], 10, 64)
		switch {
		case err != nil:
			return fmt.Errorf("trace: record %d time: %w", i, err)
		case ts < 0 || ts >= t.Duration:
			return fmt.Errorf("trace: record %d time %d outside [0, %d)", i, ts, t.Duration)
		case i > 0 && ts < t.Records[i-1].Time:
			return fmt.Errorf("trace: record %d time %d precedes record %d's %d", i, ts, i-1, t.Records[i-1].Time)
		}
		t.Records = append(t.Records, QueryRecord{Time: ts, Query: f[1]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// readTrace reads a header line (magic and three fields, which head
// parses) and the header's count of nf-field records: grow gets the
// capacity to preallocate, then rec parses each record. A record takes at
// least nf+1 bytes (a one-digit peer or time, a tab per further field, the
// line end), so a sized input of n bytes holds at most n/(nf+1) + 1: a
// header claiming more fails before any record is read, with an error
// wrapping io.ErrUnexpectedEOF, and costs no capacity. An input of unknown
// size preallocates at most unsizedPrealloc records.
func readTrace(r io.Reader, magic string, nf int, head func([]string) error, grow func(int), rec func(int, []string) error) error {
	size := -1
	if l, ok := r.(interface{ Len() int }); ok { // bytes and strings readers, buffers
		size = l.Len()
	}
	sc := newScanner(r)
	fields, err := sc.header(magic, 4)
	if err != nil {
		return err
	}
	if err := head(fields); err != nil {
		return err
	}
	n, err := headerCount("record", fields[3])
	if err != nil {
		return err
	}
	capacity := min(n, unsizedPrealloc)
	if size >= 0 {
		if most := size/(nf+1) + 1; n > most {
			return fmt.Errorf("trace: header claims %d records, a %d-byte input holds at most %d: %w", n, size, most, io.ErrUnexpectedEOF)
		}
		capacity = n
	}
	grow(capacity)
	for i := 0; i < n; i++ {
		f, err := sc.record(nf)
		if err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
		if err := rec(i, f); err != nil {
			return err
		}
	}
	return nil
}

// unsizedPrealloc is how many records a reader of an input of unknown size
// preallocates, at most: the header count is input to be checked, not a
// promise.
const unsizedPrealloc = 1 << 12

// scanner wraps line/field parsing with sane limits.
type scanner struct{ sc *bufio.Scanner }

func newScanner(r io.Reader) *scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &scanner{sc: sc}
}

// line returns the next line. The scanner strips a line's trailing CR, so
// CRLF input reads as LF input; a CR anywhere else would land in a field
// Write refuses (checkField), so it fails here.
func (s *scanner) line() (string, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return "", err
		}
		return "", io.ErrUnexpectedEOF
	}
	line := s.sc.Text()
	if strings.IndexByte(line, '\r') >= 0 {
		return "", fmt.Errorf("trace: carriage return inside line %q", line)
	}
	return line, nil
}

func (s *scanner) header(magic string, nf int) ([]string, error) {
	line, err := s.line()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	fields := strings.Split(line, "\t")
	if len(fields) != nf || fields[0] != magic {
		return nil, fmt.Errorf("trace: not a %s trace (header %q)", magic, line)
	}
	return fields, nil
}

// headerCount parses a header count. Counts are written from len(), so a
// negative one — the "-1 = until EOF" header of the retired streaming
// writer included — is a syntax error (strconv.ErrSyntax), never a
// capacity handed to make.
func headerCount(kind, s string) (int, error) {
	n, err := strconv.ParseUint(s, 10, 31)
	if err != nil {
		return 0, fmt.Errorf("trace: bad %s count: %w", kind, err)
	}
	return int(n), nil
}

func (s *scanner) record(nf int) ([]string, error) {
	line, err := s.line()
	if err != nil {
		return nil, err
	}
	fields := strings.Split(line, "\t")
	if len(fields) != nf {
		return nil, fmt.Errorf("trace: want %d fields, got %d in %q", nf, len(fields), line)
	}
	return fields, nil
}
