package snapshot

import (
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
// LoadMapped run over every input; mapped networks additionally survive a
// flood-path probe before their mapping is released: the index checksum
// reads every posting, and floods of a few dictionary terms decode the
// persisted holder lists. Seeded with a real snapshot of a small
// catalog-backed network plus the classic traps: empty file, bare magic,
// bumped version, the retired version-1 header and a full file stamped
// version 2, truncated and bit-flipped variants, one of them flipped inside
// the holder section.
func FuzzSnapshotLoad(f *testing.F) {
	cat, err := catalog.Build(catalog.Config{
		Seed: 11, Peers: 12, UniqueObjects: 48, ReplicaAlpha: 2.45,
		VariantProb: 0.05, NonSpecificPeerFrac: 0.03,
	})
	if err != nil {
		f.Fatal(err)
	}
	nw, err := gnet.NewFromCatalog(gnet.DefaultConfig(11), cat)
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

	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.qcsnap")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Load(p, 0)
		if err != nil {
			if !typed(err) {
				t.Fatalf("Load returned an untyped error: %v", err)
			}
		} else if got == nil || len(got.Peers) == 0 {
			// Only a fingerprint-clean file gets here; the network must be
			// fully usable.
			t.Fatalf("Load returned nil error but unusable network %v", got)
		}

		m, err := LoadMapped(p, 0)
		if err != nil {
			if !typed(err) {
				t.Fatalf("LoadMapped returned an untyped error: %v", err)
			}
			return
		}
		if m == nil || len(m.Peers) == 0 || !m.Borrowed() {
			t.Fatalf("LoadMapped returned nil error but unusable network %v", m)
		}
		// Touch the borrowed views before unmapping: a bounds bug in the
		// zero-copy parse would fault here, inside the test.
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
	})
}
