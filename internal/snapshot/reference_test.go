package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"querycentric/internal/gnet"
)

// parseSequential is the verify-then-decode parse the loaders overlap: one
// section at a time, hash it, compare the digest, then decode it. It is
// the reference for the error each damaged input earns.
func parseSequential(data []byte) (*gnet.NetworkState, error) {
	dir, err := readDirectory(data)
	if err != nil {
		return nil, err
	}
	var dec decoder
	for i := range dir {
		e := &dir[i]
		b := payload(data, e)
		if sum := sha256.Sum256(b); sum != e.sum {
			return nil, digestError(e, sum)
		}
		if err := dec.section(e, b); err != nil {
			return nil, err
		}
	}
	return &dec.st, nil
}

// loadSequential is Load (mapped false) or LoadMapped (mapped true) over
// parseSequential: the whole file verified and decoded before the network
// is rebuilt.
func loadSequential(path string, mapped bool, workers int) (*gnet.Network, error) {
	var data []byte
	var backing io.Closer
	var err error
	if mapped {
		data, backing, err = mapFile(path)
	} else {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			data, err = readFileBytes(f)
			f.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	release := func() {
		if backing != nil {
			backing.Close()
		}
	}
	st, err := parseSequential(data)
	if err != nil {
		release()
		return nil, err
	}
	st.Borrowed, st.Backing = mapped, backing
	nw, err := gnet.NewFromState(st, workers)
	if err != nil {
		release()
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nw, nil
}

var sentinels = []error{ErrFormat, ErrVersion, ErrTruncated, ErrCorrupt, ErrFingerprint}

// sameError reports how got differs from the reference error want: in
// nil-ness, in text or in any sentinel errors.Is matches. "" means equal.
func sameError(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("got %v, reference %v", got, want)
	}
	if got == nil {
		return ""
	}
	if got.Error() != want.Error() {
		return fmt.Sprintf("got %q, reference %q", got, want)
	}
	for _, s := range sentinels {
		if errors.Is(got, s) != errors.Is(want, s) {
			return fmt.Sprintf("errors.Is(%v) is %v, reference %v", s, errors.Is(got, s), errors.Is(want, s))
		}
	}
	return ""
}

// checkAgainstReference loads path with both loaders and with their
// sequential references, and returns the reference's error after failing t
// on any disagreement: error text and sentinels on failure, an equal
// exported state on success.
func checkAgainstReference(t *testing.T, path string, workers int) error {
	t.Helper()
	for _, mapped := range []bool{false, true} {
		load, name := Load, "Load"
		if mapped {
			load, name = LoadMapped, "LoadMapped"
		}
		want, werr := loadSequential(path, mapped, workers)
		got, gerr := load(path, workers)
		if d := sameError(gerr, werr); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		if werr != nil {
			if !mapped {
				continue
			}
			return werr
		}
		if len(got.Peers) == 0 || got.Borrowed() != mapped {
			t.Fatalf("%s returned an unusable network", name)
		}
		ws, err := want.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		gs, err := got.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: the restored network's state differs from the reference's", name)
		}
		want.Close()
		got.Close()
	}
	return nil
}

// settle waits for the goroutine count to fall back to base: hashers that
// have signalled done may take a moment to exit, leaked ones never do.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a failed load, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlappedLoadMatchesSequential pins the loaders' error contract to
// the sequential reference: for every damaged input, Load and LoadMapped
// return the reference's error text and sentinels — the first section in
// file order whose digest or decode fails, a digest mismatch winning
// within a section, and a NewFromState failure only when every digest
// matches — and on a clean file a state equal to the reference's. No
// failed LoadMapped leaves a goroutine behind.
func TestOverlappedLoadMatchesSequential(t *testing.T) {
	nw := buildNet(t, 80)
	_, path := saveTo(t, nw)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := readDirectory(pristine)
	if err != nil {
		t.Fatal(err)
	}

	// run writes b, checks both loaders against the reference at two
	// worker counts, and checks the reference's error against want: nil,
	// or the section (1-based kind) it must name and whether it is a
	// digest mismatch.
	type verdict struct {
		ok      bool
		section int
		digest  bool
		text    string
	}
	run := func(t *testing.T, b []byte, want verdict) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "in.qcsnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		var err error
		for _, workers := range []int{1, 3} {
			err = checkAgainstReference(t, p, workers)
			settle(t, base)
		}
		switch {
		case want.ok:
			if err != nil {
				t.Fatalf("clean input failed: %v", err)
			}
			return
		case err == nil:
			t.Fatal("damaged input loaded")
		case errors.Is(err, ErrFingerprint) != want.digest:
			t.Fatalf("got %v, want a digest mismatch: %v", err, want.digest)
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("got %v, want ErrCorrupt", err)
		case want.section > 0 && !strings.Contains(err.Error(), fmt.Sprintf("section %d", want.section)):
			t.Fatalf("got %v, want section %d named", err, want.section)
		case !strings.Contains(err.Error(), want.text):
			t.Fatalf("got %v, want %q", err, want.text)
		}
	}
	clone := func() []byte { return append([]byte(nil), pristine...) }
	// flip damages section kind k's digest: one payload byte, mid-section.
	flip := func(b []byte, k int) []byte {
		e := &dir[k-1]
		b[e.off+e.size/2] ^= 0x20
		return b
	}
	// breakCount rewrites section kind k's leading count word (meta's peer
	// count) so its decoder must refuse it, and reseals the file.
	breakCount := func(b []byte, k int) []byte {
		at := dir[k-1].off
		if k == secMeta {
			at += 40
		}
		binary.LittleEndian.PutUint64(b[at:], 1<<62)
		return reseal(b)
	}

	t.Run("clean", func(t *testing.T) {
		run(t, clone(), verdict{ok: true})
		st, join, err := parseSnapshot(pristine)
		if err != nil {
			t.Fatal(err)
		}
		if err := join(); err != nil {
			t.Fatal(err)
		}
		ref, err := parseSequential(pristine)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, ref) {
			t.Fatal("parseSnapshot's state differs from the sequential parse's")
		}
	})
	for k := secMeta; k <= secHolders; k++ {
		t.Run(fmt.Sprintf("flipped section %d", k), func(t *testing.T) {
			run(t, flip(clone(), k), verdict{section: k, digest: true, text: "carries"})
		})
	}
	for i := secMeta; i <= secHolders; i++ {
		for j := secMeta; j <= secHolders; j++ {
			if i == j {
				continue
			}
			t.Run(fmt.Sprintf("structural %d digest %d", i, j), func(t *testing.T) {
				want := verdict{section: i}
				if j < i {
					want = verdict{section: j, digest: true, text: "carries"}
				}
				run(t, flip(breakCount(clone(), i), j), want)
			})
		}
	}
	t.Run("structural alone", func(t *testing.T) {
		for k := secMeta; k <= secHolders; k++ {
			run(t, breakCount(clone(), k), verdict{section: k})
		}
	})

	// Damage only NewFromState catches, resealed: the first term of the
	// dictionary sorts after the second, or a holder list names a peer
	// past the count.
	unsorted := func() []byte {
		b := clone()
		b[dir[secDict-1].off+16+4*uint64(nw.TermDict().Len()+1)] = 0xff
		return reseal(b)
	}
	pastCount := func() []byte {
		b := clone()
		sec := b[dir[secHolders-1].off:]
		off := func(t int) uint32 { return binary.LittleEndian.Uint32(sec[16+4*t:]) }
		for id := 0; id < nw.TermDict().Len(); id++ {
			if off(id+1)-off(id) == 1 {
				sec[16+4*(nw.TermDict().Len()+1)+int(off(id))] = 0x7f // peer 127 of 80
				return reseal(b)
			}
		}
		t.Fatal("no one-byte holder list")
		return nil
	}
	t.Run("terms out of order", func(t *testing.T) {
		run(t, unsorted(), verdict{text: "terms out of order at 1"})
		for j := secTopology; j <= secHolders; j++ {
			run(t, flip(unsorted(), j), verdict{section: j, digest: true, text: "carries"})
		}
	})
	t.Run("holder past the count", func(t *testing.T) {
		run(t, pastCount(), verdict{text: "names peer 127"})
		for j := secMeta; j < secHolders; j++ {
			run(t, flip(pastCount(), j), verdict{section: j, digest: true, text: "carries"})
		}
	})
}
