package daap

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"

	"querycentric/internal/dmap"
	"querycentric/internal/trace"
)

// CrawlStats is the share funnel the crawl observed, mirroring the paper's
// report (620 discovered → 45 password, 33 busy, firewalled remainder, 239
// collected).
type CrawlStats struct {
	Discovered int
	Collected  int
	Password   int
	Busy       int
	Firewalled int
	Failed     int
}

// String formats the funnel.
func (s *CrawlStats) String() string {
	return fmt.Sprintf("discovered=%d collected=%d password=%d busy=%d firewalled=%d failed=%d",
		s.Discovered, s.Collected, s.Password, s.Busy, s.Firewalled, s.Failed)
}

// maxBodyBytes bounds each DAAP response body a crawl reads. The largest
// is a share's item listing, about 200 bytes a song, so 16 MiB holds some
// 80,000 songs — past any library the crawl observes — while a share that
// streams without end costs the crawler at most this much memory.
const maxBodyBytes = 16 << 20

// ErrBodyTooLarge reports a DAAP response body longer than maxBodyBytes.
var ErrBodyTooLarge = errors.New("daap: response body too large")

// errFirewalled simulates a TCP connection timeout to a firewalled share.
var errFirewalled = errors.New("daap: connection timed out (firewalled)")

// Crawl visits every share in the population the way AppleRecords did —
// Zeroconf discovery (here: the population listing), then per share
// /server-info, /login, /databases/1/items over HTTP+DMAP — and returns the
// observed song trace. Firewalled shares fail to connect; password and busy
// shares are counted and skipped.
func Crawl(p *Population) (*trace.SongTrace, *CrawlStats, error) {
	stats := &CrawlStats{Discovered: len(p.Shares)}
	tr := &trace.SongTrace{Source: "itunes-sim-crawl"}
	peerIdx := 0
	for _, share := range p.Shares {
		songs, err := crawlShare(share)
		switch {
		case errors.Is(err, errFirewalled):
			stats.Firewalled++
		case isStatus(err, http.StatusUnauthorized):
			stats.Password++
		case isStatus(err, http.StatusServiceUnavailable):
			stats.Busy++
		case err != nil:
			stats.Failed++
		default:
			stats.Collected++
			for _, s := range songs {
				tr.Records = append(tr.Records, trace.SongRecord{
					Peer: peerIdx, Track: s.Track, Artist: s.Artist,
					Album: s.Album, Genre: s.Genre,
				})
			}
			peerIdx++
		}
	}
	tr.Peers = stats.Collected
	return tr, stats, nil
}

func isStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.Code == code
}

// crawlShare speaks the DAAP subset against one share through an in-memory
// HTTP round tripper (the handler is real; only the TCP socket is elided).
func crawlShare(share *Share) ([]SongMeta, error) {
	if share.Status == StatusFirewalled {
		return nil, errFirewalled
	}
	client := &http.Client{Transport: &handlerTransport{h: Serve(share)}}
	return CrawlURL(client, "http://share.local", share.ID)
}

// CrawlURL runs the crawl conversation against a DAAP endpoint reachable
// through client at baseURL. Exported so integration tests (and the
// qc-itunes tool) can crawl real TCP listeners.
func CrawlURL(client *http.Client, baseURL string, shareID int) ([]SongMeta, error) {
	get := func(op, path string) (*dmap.Node, error) {
		req, err := http.NewRequest(http.MethodGet, baseURL+path, nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(clientIPHeader, "10.99.0.1")
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			return nil, &statusError{ShareID: shareID, Code: resp.StatusCode, Op: op}
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
		if err != nil {
			return nil, err
		}
		if len(body) > maxBodyBytes {
			return nil, fmt.Errorf("%w: share %d: %s body exceeds %d bytes", ErrBodyTooLarge, shareID, op, maxBodyBytes)
		}
		return dmap.Decode(body)
	}

	if _, err := get("server-info", "/server-info"); err != nil {
		return nil, err
	}
	login, err := get("login", "/login")
	if err != nil {
		return nil, err
	}
	sess := login.ChildUint("mlid")
	if sess == 0 {
		return nil, fmt.Errorf("daap: share %d: login returned no session", shareID)
	}
	if _, err := get("databases", fmt.Sprintf("/databases?session-id=%d", sess)); err != nil {
		return nil, err
	}
	items, err := get("items", fmt.Sprintf("/databases/1/items?session-id=%d", sess))
	if err != nil {
		return nil, err
	}
	mlcl := items.Child("mlcl")
	if mlcl == nil {
		return nil, fmt.Errorf("daap: share %d: items response missing mlcl", shareID)
	}
	var songs []SongMeta
	for _, item := range mlcl.Children {
		if item.Code != "mlit" {
			continue
		}
		songs = append(songs, SongMeta{
			Track:  item.ChildString("minm"),
			Artist: item.ChildString("asar"),
			Album:  item.ChildString("asal"),
			Genre:  item.ChildString("asgn"),
		})
	}
	return songs, nil
}

// handlerTransport dispatches HTTP requests straight into a handler,
// avoiding per-share TCP listeners during large crawls.
type handlerTransport struct{ h http.Handler }

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	// Strip the host so the mux sees the bare path.
	clone := req.Clone(req.Context())
	clone.RequestURI = ""
	clone.URL.Scheme = ""
	clone.URL.Host = ""
	if !strings.HasPrefix(clone.URL.Path, "/") {
		clone.URL.Path = "/" + clone.URL.Path
	}
	t.h.ServeHTTP(rec, clone)
	return rec.Result(), nil
}
