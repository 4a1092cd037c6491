package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/gnet"
	"querycentric/internal/rng"
)

// FuzzSnapshotLoad asserts the loaders' contract over arbitrary bytes:
// every input yields either one of the package's typed sentinel errors or
// a fingerprint-verified network — never a panic, never an untyped
// failure, and never a "valid" network from damaged bytes (the per-section
// digests make any mutation loud). Both the copying Load and the zero-copy
// LoadMapped run over every input and must agree with the sequential
// reference (parseSequential: hash, compare, then decode, one section at
// a time) in error text and sentinels, or in the restored state; mapped
// networks additionally survive a flood-path probe before their mapping is
// released: the index checksum reads every posting, and floods of a few
// dictionary terms decode the persisted holder lists.
//
// The resealed arm: the loaders decode sections and rebuild the network
// before the digests are joined, so the decoders and gnet.NewFromState see
// damaged bytes on every input, and digests alone no longer keep them
// safe. Each input is therefore loaded a second time with every section
// digest and the directory hash recomputed over its bytes, so damage gets
// past the digests to the structural checks; the same contract holds,
// except that resealed networks skip the probe — posting arenas are
// guarded by their section digest, not checked structurally (DESIGN
// "Mmap-backed loading"), so a probe of resealed garbage may read out of
// range by design.
//
// Seeded with a real snapshot of a small catalog-backed network plus the
// classic traps: empty file, bare magic, bumped version, the retired
// version-1 header and a full file stamped version 2, truncated and
// bit-flipped variants, one of them flipped inside the holder section.
func FuzzSnapshotLoad(f *testing.F) {
	cat, err := catalog.BuildWorkers(catalog.Config{
		Seed: 11, Peers: 12, UniqueObjects: 48, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	}, 0)
	if err != nil {
		f.Fatal(err)
	}
	nw, err := gnet.NewFromCatalogWorkers(gnet.DefaultConfig(11), cat, 0)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.qcsnap")
	if _, err := Save(path, nw, 0); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte(magic))
	verBump := append([]byte(nil), seed...)
	verBump[len(magic)]++ // little-endian version low byte
	f.Add(verBump)
	f.Add(seed[:len(seed)/2])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(v1Header)
	stampedV1 := append([]byte(nil), seed...)
	stampedV1[len(magic)] = 1 // full-length body under the retired version number
	f.Add(stampedV1)
	stampedV2 := append([]byte(nil), seed...)
	stampedV2[len(magic)] = 2
	f.Add(stampedV2)
	holderFlip := append([]byte(nil), seed...)
	holderFlip[(int(binary.LittleEndian.Uint64(seed[dirOff+(secHolders-1)*dirEntryLen+8:]))+len(seed))/2] ^= 0x01
	f.Add(holderFlip)

	typed := func(err error) bool {
		for _, sentinel := range []error{ErrFormat, ErrVersion, ErrTruncated, ErrCorrupt, ErrFingerprint} {
			if errors.Is(err, sentinel) {
				return true
			}
		}
		return false
	}

	write := func(t *testing.T, b []byte) string {
		p := filepath.Join(t.TempDir(), "fuzz.qcsnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		p := write(t, b)
		if err := checkAgainstReference(t, p, 0); err != nil {
			if !typed(err) {
				t.Fatalf("untyped error: %v", err)
			}
		} else {
			probeMapped(t, p)
		}
		if r := resealed(b); r != nil && !bytes.Equal(r, b) {
			if err := checkAgainstReference(t, write(t, r), 0); err != nil && !typed(err) {
				t.Fatalf("untyped error on the resealed input: %v", err)
			}
		}
	})
}

// probeMapped maps a digest-verified snapshot and touches its borrowed
// views before unmapping: a bounds bug in the zero-copy parse would fault
// here, inside the test.
func probeMapped(t *testing.T, p string) {
	m, err := LoadMapped(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IndexChecksum(); err != nil {
		t.Fatalf("mapped network is not usable: %v", err)
	}
	ctx, d := m.NewFloodCtx(), m.TermDict()
	for id := 0; id < d.Len(); id += max(d.Len()/4, 1) {
		if _, err := ctx.Flood(id%len(m.Peers), d.Term(dict.TermID(id)), 3, rng.New(uint64(id))); err != nil {
			t.Fatalf("flood over the mapped network: %v", err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// resealed returns a copy of b with every section digest whose directory
// bounds lie inside b, and then the directory hash, recomputed over b's
// own bytes; nil when b cannot hold a directory.
func resealed(b []byte) []byte {
	if len(b) < firstSectionOff {
		return nil
	}
	c := append([]byte(nil), b...)
	for i := 0; i < numSections; i++ {
		e := c[dirOff+i*dirEntryLen:]
		at, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if at <= uint64(len(c)) && n <= uint64(len(c))-at {
			sum := sha256.Sum256(c[at : at+n])
			copy(e[24:], sum[:])
		}
	}
	sum := sha256.Sum256(c[:dirHashOff])
	copy(c[dirHashOff:], sum[:])
	return c
}
