// Package snapshot persists a fully built gnet.Network — topology,
// libraries, the interned term dictionary, every peer's compressed posting
// index and the network-wide holder index — to a versioned, fingerprinted
// flat file, and restores it in a fraction of the time a fresh catalog +
// network + index build takes.
//
// The motivation is paper-scale iteration: the ScaleFull population
// (37,572 peers, 8.1M objects, 118M postings) costs minutes of
// single-core construction that every experiment process pays again
// before its first flood. A snapshot pays that cost once; later runs
// deserialize the finished substrate — derived data included: the posting
// arenas and the holder index are persisted, verified and adopted, not
// rebuilt; only the dictionary's QRP hash products are recomputed, on the
// first QRP use. A restored network floods, crawls and serves
// byte-identically to the one it was exported from.
//
// # File format
//
// There is one format, version 3 — an aligned, per-section-hashed layout
// designed for zero-copy mmap loading (see format.go for the layout and
// the streaming Writer the sharded builder uses). No network is returned
// over damaged bytes: every section is verified against its directory
// digest — the digests run while the sections are decoded and the network
// is rebuilt, and are joined before a loader returns — and the holder index
// is checked structurally before it is adopted. The error a damaged file
// gets is the one a verify-then-decode pass would give: the first section
// in file order whose digest or decode fails. Every failure mode has a
// typed sentinel error:
// ErrFormat for foreign files, ErrVersion for snapshots of any other format
// revision (including the version-1 and version-2 files earlier builds
// wrote), ErrTruncated for short files, ErrCorrupt for structural damage
// and ErrFingerprint for content damage (hash mismatches match both
// ErrFingerprint and ErrCorrupt).
package snapshot

import (
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"querycentric/internal/gnet"
)

// Version is the one snapshot format revision this build writes and reads.
const Version = 3

// magic identifies a snapshot file.
const magic = "QCSNAP"

// Typed failure modes; wrap details, so errors.Is works on all of them.
var (
	// ErrFormat: the file is not a QCSNAP snapshot at all.
	ErrFormat = errors.New("snapshot: not a QCSNAP file")
	// ErrVersion: the file is a snapshot from a different format revision.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated: the file ends before the format says it should.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrCorrupt: a section's payload violates the format's invariants.
	ErrCorrupt = errors.New("snapshot: corrupt section")
	// ErrFingerprint: a recorded SHA-256 does not match the content.
	ErrFingerprint = errors.New("snapshot: fingerprint mismatch")
)

// Section kinds, in their required file order.
const (
	secMeta = iota + 1
	secDict
	secTopology
	secLibraries
	secIndexes
	secHolders
	numSections = 6
)

// Save exports nw (indexing it first over up to `workers` goroutines, if
// anything is left to build) and writes the snapshot to path, atomically:
// the bytes land in path+".tmp" and are renamed into place only after a
// successful sync-free close. Returns the file size in bytes.
func Save(path string, nw *gnet.Network, workers int) (int64, error) {
	// Index over the caller's worker budget; ExportState's own build call
	// then finds everything done.
	if err := nw.BuildIndexes(workers); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	st, err := nw.ExportState()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	return writeAtomic(path, func(f *os.File) (int64, error) { return writeSnapshot(f, st) })
}

// writeAtomic writes path through write, atomically: the bytes land in
// path+".tmp", which is renamed into place only after a successful
// sync-free close. Returns what write returned.
func writeAtomic(path string, write func(*os.File) (int64, error)) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// Load reads a snapshot and reconstructs the network, copying everything
// onto the heap: the file is read whole, and its section digests are
// checked while the sections are decoded and the network is rebuilt (see
// parseSnapshot). No network is returned over bytes that fail
// verification, and the error a damaged file gets names the first section,
// in file order, that fails its digest or its decode. The dictionary and
// holder-index checks and the peer wiring run over up to `workers`
// goroutines; a failure there is reported, as ErrCorrupt, only when every
// digest matched. The dictionary's QRP products are built on first use.
func Load(path string, workers int) (*gnet.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := readFileBytes(f)
	if err != nil {
		return nil, err
	}
	return restore(data, nil, workers)
}

// LoadMapped reconstructs a network over a read-only memory mapping of a
// snapshot: file names, posting arenas, skip arrays, the dictionary arena
// and the holder index stay views into the mapping (zero-copy; the kernel
// pages them in on demand), while mutable structures (neighbor lists, the
// library and index headers, QRP products once built) live on the heap.
// Verification and errors are Load's: the digests run beside the decode
// and the rebuild, and all of them are joined before LoadMapped returns or
// unmaps anything. The returned network owns the mapping — call its Close
// when done with it; until then the views must outlive any use.
func LoadMapped(path string, workers int) (*gnet.Network, error) {
	data, backing, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	nw, err := restore(data, backing, workers)
	if err != nil {
		backing.Close()
		return nil, err
	}
	return nw, nil
}

// restore is both loaders' body: parse data, rebuild the network from the
// decoded state while the section digests finish, then join them. A
// non-nil backing marks data as borrowed from it. The join's verdict
// outranks whatever NewFromState said about bytes not yet verified, and
// every hasher has finished when restore returns.
func restore(data []byte, backing io.Closer, workers int) (*gnet.Network, error) {
	st, join, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	var nw *gnet.Network
	if st != nil {
		st.Borrowed, st.Backing = backing != nil, backing
		nw, err = gnet.NewFromState(st, workers)
	}
	if jerr := join(); jerr != nil {
		return nil, jerr
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nw, nil
}

// unsafeString views payload bytes as a string without copying. The
// payload block is never mutated after decode, so the strings are safe.
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
