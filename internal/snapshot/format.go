// The snapshot format (version 3): the mmap-ready layout.
//
// Six sections (meta, dict, topology, libraries, indexes, holders) laid out
// for zero-copy loading:
//
//	offset 0    "QCSNAP" magic (6), u16le version = 3, u8 section count,
//	            7 zero bytes of padding            — 16-byte header
//	offset 16   directory: 6 × 56-byte entries
//	            [u8 kind][7 zero][u64le payload offset][u64le payload
//	            length][32-byte SHA-256 of the payload]
//	offset 352  32-byte SHA-256 over bytes [0, 352) — seals header + directory
//	offset 384  first section payload
//
// Every section payload starts on a 16-byte file offset (zero-filled gaps
// between sections) and keeps its internal u32 arrays on 4-byte boundaries,
// so a loader may view them in place — from a heap buffer or straight from
// an mmap'd file — with at most an endianness/alignment fallback copy.
// There is no whole-file trailer: each payload carries its own digest in
// the directory, so the six digests can run side by side, and beside the
// decode: a loader checks the sealed directory first, then hashes the
// sections while it decodes them and rebuilds the network, and joins every
// digest before it returns (see parseSnapshot). The file must end exactly
// at the last payload's final byte; trailing garbage is corruption.
//
// The writer is single-pass and streaming: sections are written front to
// back through a small buffer while their digests accumulate, and the
// header + directory (whose offsets, lengths and digests are only known at
// the end) are patched into the zero-filled prelude with one WriteAt. That
// is what lets the sharded builder emit a paper-scale snapshot while
// holding only one shard of peers in memory.
package snapshot

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"querycentric/internal/dict"
	"querycentric/internal/gmsg"
	"querycentric/internal/gnet"
)

// Fixed layout offsets (see the file comment above).
const (
	headerLen       = 16
	dirEntryLen     = 1 + 7 + 8 + 8 + sha256.Size // kind, pad, offset, length, digest
	dirOff          = headerLen
	dirHashOff      = dirOff + numSections*dirEntryLen // 352
	preludeLen      = dirHashOff + sha256.Size         // 384
	sectionAlign    = 16
	firstSectionOff = (preludeLen + sectionAlign - 1) / sectionAlign * sectionAlign // 384
)

// hostLittleEndian reports whether in-place u32 views of little-endian file
// bytes are valid on this machine.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// dirEntry is one directory slot: where a section's payload lives and what
// it must hash to.
type dirEntry struct {
	kind byte
	off  uint64
	size uint64
	sum  [sha256.Size]byte
}

// Writer streams a snapshot to a file: a zero-filled prelude, then each
// section in order (BeginSection → content → EndSection), then Finish,
// which patches the real header, directory and directory hash over the
// prelude. Content methods are error-latched — the first failure sticks
// and every later call is a no-op — so call sites stay linear and check
// once.
type Writer struct {
	f   *os.File
	bw  *bufio.Writer
	h   hash.Hash
	off int64 // absolute file offset of the next byte
	cur int   // directory index of the open section; -1 between sections
	n   int   // sections completed
	dir [numSections]dirEntry
	err error
	buf [8]byte
}

// NewWriter starts a snapshot at f's origin. f must be empty (or about to
// be overwritten from offset 0): the prelude is zero-filled now and
// rewritten in place by Finish.
func NewWriter(f *os.File) (*Writer, error) {
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20), h: sha256.New(), cur: -1}
	var zero [firstSectionOff]byte
	if _, err := w.bw.Write(zero[:]); err != nil {
		return nil, err
	}
	w.off = firstSectionOff
	return w, nil
}

// BeginSection pads the file to the section alignment and opens a section
// of the given kind. Sections must be written in kind order, meta through
// holders.
func (w *Writer) BeginSection(kind byte) error {
	if w.err != nil {
		return w.err
	}
	if w.cur >= 0 {
		w.err = fmt.Errorf("snapshot: BeginSection(%d) with section %d still open", kind, w.dir[w.cur].kind)
		return w.err
	}
	if w.n >= numSections {
		w.err = fmt.Errorf("snapshot: BeginSection(%d) after all %d sections", kind, numSections)
		return w.err
	}
	if want := byte(secMeta + w.n); kind != want {
		w.err = fmt.Errorf("snapshot: BeginSection(%d) out of order, want %d", kind, want)
		return w.err
	}
	// The alignment gap belongs to no section: written, never hashed.
	var zero [sectionAlign]byte
	if pad := (-w.off) & (sectionAlign - 1); pad > 0 {
		if _, err := w.bw.Write(zero[:pad]); err != nil {
			w.err = err
			return err
		}
		w.off += pad
	}
	w.h.Reset()
	w.cur = w.n
	w.dir[w.cur] = dirEntry{kind: kind, off: uint64(w.off)}
	return nil
}

// EndSection closes the open section, recording its length and digest.
func (w *Writer) EndSection() error {
	if w.err != nil {
		return w.err
	}
	if w.cur < 0 {
		w.err = fmt.Errorf("snapshot: EndSection with no open section")
		return w.err
	}
	e := &w.dir[w.cur]
	e.size = uint64(w.off) - e.off
	w.h.Sum(e.sum[:0])
	w.cur = -1
	w.n++
	return nil
}

// Write appends raw payload bytes to the open section (io.Writer, so side
// buffers spill in with io.Copy). Bytes are folded into the section digest
// as they pass.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.cur < 0 {
		w.err = fmt.Errorf("snapshot: Write outside a section")
		return 0, w.err
	}
	n, err := w.bw.Write(p)
	w.h.Write(p[:n])
	w.off += int64(n)
	w.err = err
	return n, err
}

func (w *Writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.Write(w.buf[:4])
}

func (w *Writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.Write(w.buf[:8])
}

// u32s writes a u32 array as little-endian bytes. On little-endian hosts
// the slice's own bytes are written directly; elsewhere a bounded scratch
// re-encodes, so output is identical on every machine.
func (w *Writer) u32s(v []uint32) {
	if len(v) == 0 {
		return
	}
	if hostLittleEndian {
		w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v)))
		return
	}
	var scratch [4 << 10]byte
	for len(v) > 0 {
		n := min(len(v), len(scratch)/4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[4*i:], v[i])
		}
		w.Write(scratch[:4*n])
		v = v[n:]
	}
}

// pad4 zero-pads the open section so the next byte lands on a 4-byte file
// offset (section starts are 16-aligned, so file and section alignment
// agree). The pad is part of the section: hashed, and re-checked on load.
func (w *Writer) pad4() {
	var zero [4]byte
	if pad := (-w.off) & 3; pad > 0 {
		w.Write(zero[:pad])
	}
}

// Finish flushes the payloads and patches the header, directory and
// directory hash over the zero prelude. Returns the file size in bytes.
func (w *Writer) Finish() (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.cur >= 0 {
		return 0, fmt.Errorf("snapshot: Finish with section %d still open", w.dir[w.cur].kind)
	}
	if w.n != numSections {
		return 0, fmt.Errorf("snapshot: Finish after %d of %d sections", w.n, numSections)
	}
	if err := w.bw.Flush(); err != nil {
		return 0, err
	}
	var p [firstSectionOff]byte
	copy(p[:], magic)
	binary.LittleEndian.PutUint16(p[len(magic):], Version)
	p[len(magic)+2] = numSections
	for i, e := range w.dir {
		b := p[dirOff+i*dirEntryLen:]
		b[0] = e.kind
		binary.LittleEndian.PutUint64(b[8:], e.off)
		binary.LittleEndian.PutUint64(b[16:], e.size)
		copy(b[24:], e.sum[:])
	}
	sum := sha256.Sum256(p[:dirHashOff])
	copy(p[dirHashOff:], sum[:])
	if _, err := w.f.WriteAt(p[:], 0); err != nil {
		return 0, err
	}
	return w.off, nil
}

// ---------------------------------------------------------------------------
// Section encoders. One encoder per section, shared verbatim by Save (which
// walks a NetworkState) and by the sharded builder (which walks a skeleton
// network and per-shard state): both paths emit rows through the same
// functions, which is what makes their outputs byte-identical.

// writeMetaSection: 6 × u64le — seed, float bits of UltrapeerFrac,
// UltraDegree, FlatDegree, float bits of FirewalledFrac, peer count.
func writeMetaSection(w *Writer, cfg gnet.Config, nPeers int) {
	w.BeginSection(secMeta)
	w.u64(cfg.Seed)
	w.u64(math.Float64bits(cfg.UltrapeerFrac))
	w.u64(uint64(cfg.UltraDegree))
	w.u64(uint64(cfg.FlatDegree))
	w.u64(math.Float64bits(cfg.FirewalledFrac))
	w.u64(uint64(nPeers))
	w.EndSection()
}

// csrSource is a byte CSR — the dictionary's term arena or the holder
// index — handed to the writer in pieces, so the sharded builder can stream
// a holder index it never holds whole.
type csrSource struct {
	Count    int    // entries; Offsets emits Count+1 values
	ArenaLen uint64 // bytes Arena emits
	Offsets  func(emit func(off []uint32))
	Arena    func(emit func(piece []byte))
}

// wholeCSR is the source of a CSR held in memory.
func wholeCSR(off []uint32, arena []byte) csrSource {
	return csrSource{
		Count:    len(off) - 1,
		ArenaLen: uint64(len(arena)),
		Offsets:  func(emit func([]uint32)) { emit(off) },
		Arena:    func(emit func([]byte)) { emit(arena) },
	}
}

// writeCSRSection is the dict and holders sections' one encoder: u64 entry
// count, u64 arena length, u32 offsets (count+1, raw), arena bytes.
func writeCSRSection(w *Writer, kind byte, src csrSource) {
	w.BeginSection(kind)
	w.u64(uint64(src.Count))
	w.u64(src.ArenaLen)
	src.Offsets(w.u32s)
	src.Arena(func(piece []byte) { w.Write(piece) })
	w.EndSection()
}

// topoSource abstracts where topology rows come from: a NetworkState
// (Save) or a live skeleton network (the sharded builder).
type topoSource struct {
	NPeers     int
	Firewalled func(i int) bool
	Ultrapeer  func(i int) bool
	GUID       func(i int) gmsg.GUID
	Neighbors  func(i int) []int
}

// writeTopologySection: u64 peer count, u64 total neighbor entries,
// firewalled bitset, ultrapeer bitset, 16-byte GUIDs, pad to 4, u32
// degrees, u32 neighbor IDs in per-peer list order (order is state: floods
// forward in list order).
func writeTopologySection(w *Writer, src topoSource) {
	n := src.NPeers
	total := 0
	for i := 0; i < n; i++ {
		total += len(src.Neighbors(i))
	}
	w.BeginSection(secTopology)
	w.u64(uint64(n))
	w.u64(uint64(total))
	writeBitset(w, n, src.Firewalled)
	writeBitset(w, n, src.Ultrapeer)
	for i := 0; i < n; i++ {
		g := src.GUID(i)
		w.Write(g[:])
	}
	w.pad4()
	for i := 0; i < n; i++ {
		w.u32(uint32(len(src.Neighbors(i))))
	}
	var scratch [1024]uint32
	for i := 0; i < n; i++ {
		nbrs := src.Neighbors(i)
		for len(nbrs) > 0 {
			k := min(len(nbrs), len(scratch))
			for j := 0; j < k; j++ {
				scratch[j] = uint32(nbrs[j])
			}
			w.u32s(scratch[:k])
			nbrs = nbrs[k:]
		}
	}
	w.EndSection()
}

func writeBitset(w *Writer, n int, bit func(i int) bool) {
	var chunk [512]byte
	for base := 0; base < n; base += 8 * len(chunk) {
		hi := min(base+8*len(chunk), n)
		nb := (hi - base + 7) / 8
		clear(chunk[:nb])
		for i := base; i < hi; i++ {
			if bit(i) {
				chunk[(i-base)/8] |= 1 << (i % 8)
			}
		}
		w.Write(chunk[:nb])
	}
}

// writeLibrariesHeader opens the libraries section: u64 peer count, u64
// total file count. Rows follow, one per peer in ID order; the caller ends
// the section.
func writeLibrariesHeader(w *Writer, nPeers, totalFiles int) {
	w.BeginSection(secLibraries)
	w.u64(uint64(nPeers))
	w.u64(uint64(totalFiles))
}

// appendLibraryRow encodes one peer's row: u32 file count, u32 indexes,
// u32 sizes, u32 name lengths, concatenated name bytes, pad to 4.
// Struct-of-arrays per row so the numeric columns stay 4-aligned and
// viewable in place. Rows are append-encoded into a caller scratch so the
// identical bytes can go straight into the main Writer (Save) or a spill
// file (the sharded builder).
func appendLibraryRow(b []byte, lib []gnet.File) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(lib)))
	for _, f := range lib {
		b = binary.LittleEndian.AppendUint32(b, f.Index)
	}
	for _, f := range lib {
		b = binary.LittleEndian.AppendUint32(b, f.Size)
	}
	for _, f := range lib {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Name)))
	}
	for _, f := range lib {
		b = append(b, f.Name...)
	}
	return appendPad4(b)
}

// writeIndexesHeader opens the indexes section: u64 peer count, u64 total
// skip blocks, u64 total arena bytes. Rows follow; the caller ends the
// section. The totals exist so a loader can carve single arena-backed
// allocations before walking rows — the sharded builder learns them from a
// side spill file before the header is written.
func writeIndexesHeader(w *Writer, nPeers int, totalBlocks, totalArena int64) {
	w.BeginSection(secIndexes)
	w.u64(uint64(nPeers))
	w.u64(uint64(totalBlocks))
	w.u64(uint64(totalArena))
}

// appendIndexRow encodes one peer's row: u32 term count, u32 posting
// count, u32 arena length, u32 block-first term IDs, u32 block arena
// offsets, arena bytes, pad to 4. The block count is derived from the term
// count (16-term blocks). Append-encoded for the same reason as
// appendLibraryRow.
func appendIndexRow(b []byte, ix *gnet.IndexState) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.NTerms))
	b = binary.LittleEndian.AppendUint32(b, uint32(ix.NPostings))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ix.Arena)))
	b = appendU32s(b, termIDsToU32(ix.BlockFirst))
	b = appendU32s(b, ix.BlockOff)
	b = append(b, ix.Arena...)
	return appendPad4(b)
}

// appendU32s appends a u32 array as little-endian bytes (bulk on
// little-endian hosts, element-wise elsewhere — identical output).
func appendU32s(b []byte, v []uint32) []byte {
	if len(v) == 0 {
		return b
	}
	if hostLittleEndian {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
	}
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, x)
	}
	return b
}

// appendPad4 zero-pads a row buffer to a multiple of 4 bytes. Rows start
// 4-aligned within their section (the headers are 16 or 24 bytes and every
// row is padded), so buffer-relative and section-relative alignment agree.
func appendPad4(b []byte) []byte {
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return b
}

// termIDsToU32 views a TermID slice as its underlying u32s (TermID is a
// defined uint32; no copy).
func termIDsToU32(v []dict.TermID) []uint32 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&v[0])), len(v))
}

func u32ToTermIDs(v []uint32) []dict.TermID {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*dict.TermID)(unsafe.Pointer(&v[0])), len(v))
}

// writeSnapshot streams st to f. Used by Save (over a whole in-heap
// state); the sharded builder drives the same section encoders
// incrementally instead.
func writeSnapshot(f *os.File, st *gnet.NetworkState) (int64, error) {
	w, err := NewWriter(f)
	if err != nil {
		return 0, err
	}
	writeMetaSection(w, st.Config, len(st.Peers))
	writeCSRSection(w, secDict, wholeCSR(st.DictOff, st.DictBytes))
	writeTopologySection(w, topoSource{
		NPeers:     len(st.Peers),
		Firewalled: func(i int) bool { return st.Firewalled[i] },
		Ultrapeer:  func(i int) bool { return st.Peers[i].Ultrapeer },
		GUID:       func(i int) gmsg.GUID { return st.Peers[i].ServentID },
		Neighbors:  func(i int) []int { return st.Peers[i].Neighbors },
	})
	totalFiles := 0
	var totalBlocks, totalArena int64
	for i := range st.Peers {
		totalFiles += len(st.Peers[i].Library)
		totalBlocks += int64(len(st.Peers[i].Index.BlockFirst))
		totalArena += int64(len(st.Peers[i].Index.Arena))
	}
	var row []byte
	writeLibrariesHeader(w, len(st.Peers), totalFiles)
	for i := range st.Peers {
		row = appendLibraryRow(row[:0], st.Peers[i].Library)
		w.Write(row)
	}
	w.EndSection()
	writeIndexesHeader(w, len(st.Peers), totalBlocks, totalArena)
	for i := range st.Peers {
		row = appendIndexRow(row[:0], &st.Peers[i].Index)
		w.Write(row)
	}
	w.EndSection()
	writeCSRSection(w, secHolders, wholeCSR(st.HolderOff, st.HolderArena))
	return w.Finish()
}

// ---------------------------------------------------------------------------
// Parsing. One parser serves both load paths: the copying loader hands it
// a heap buffer holding the file, the mapped loader hands it the mmap'd
// bytes. Verification overlaps restoration: once the sealed directory, the
// bounds and the zero padding check out, the six section digests run on
// other goroutines while the sections are decoded in file order (and
// while the loader rebuilds the network from them), and the loader joins
// every digest before it returns anything. So the decoders and
// gnet.NewFromState see bytes no digest has vouched for yet: they must
// fail typed, never panic, on any input — FuzzSnapshotLoad's resealed arm
// holds them to that. The error a damaged file earns is the one a
// hash-then-decode pass would report: the first section in file order
// whose digest mismatches or whose decode fails, the digest winning within
// a section.

// parseSnapshot checks data's prelude (readDirectory), starts hashing the
// six sections on other goroutines and, without waiting for them, decodes
// every section in file order into a NetworkState whose slices view data
// in place wherever alignment allows. It returns that state — nil once a
// section has failed to decode — and join, which hashes whatever sections
// no hasher has claimed yet, waits for the hashers and returns the file's
// verdict: nil, or the first section in file order whose digest
// mismatches or whose decode failed (within a section, the digest
// mismatch). A non-nil err is a prelude failure; no hasher was
// started. Otherwise the caller must call join, once, before it returns
// or releases data: no hasher may outlive the load, and a mapped caller
// unmaps data as soon as an error comes back. Nothing built from st may
// be handed out unless join returns nil.
func parseSnapshot(data []byte) (st *gnet.NetworkState, join func() error, err error) {
	dir, err := readDirectory(data)
	if err != nil {
		return nil, nil, err
	}
	// The hashers serve one queue of the six sections, largest first: with
	// the decode and the rebuild holding one CPU, GOMAXPROCS-1 goroutines
	// hash from the start, and join makes the caller a hasher too once its
	// own work is done. More hashers than free CPUs would only time-slice
	// the decode and the largest section's digest — the two long chains a
	// cold start waits on.
	var order [numSections]int
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order[:], func(a, b int) int { return cmp.Compare(dir[b].size, dir[a].size) })
	var sums [numSections][sha256.Size]byte
	var next atomic.Int32
	hash := func() {
		for k := next.Add(1) - 1; k < numSections; k = next.Add(1) - 1 {
			i := order[k]
			sums[i] = sectionSum(payload(data, &dir[i]))
		}
	}
	var wg sync.WaitGroup
	for range max(min(runtime.GOMAXPROCS(0)-1, numSections), 1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hash()
		}()
	}
	var dec decoder
	failed, decErr := numSections-1, error(nil)
	for i := range dir {
		if decErr = dec.section(&dir[i], payload(data, &dir[i])); decErr != nil {
			failed = i
			break
		}
	}
	join = func() error {
		hash()
		wg.Wait()
		for i := 0; i <= failed; i++ {
			if sums[i] != dir[i].sum {
				return digestError(&dir[i], sums[i])
			}
		}
		return decErr
	}
	if decErr != nil {
		return nil, join, nil
	}
	return &dec.st, join, nil
}

// sectionSum is SHA-256 over a section payload, fed in 1 MiB pieces.
// SHA-256's block loop is assembly the scheduler cannot preempt, so one
// call over the 48 MB libraries section would hold off every
// stop-the-world — the start of a GC cycle the decode's allocations
// trigger included — until the section was hashed, stalling the decode
// and the rebuild it overlaps.
func sectionSum(b []byte) [sha256.Size]byte {
	h := sha256.New()
	for len(b) > 0 {
		n := min(len(b), 1<<20)
		h.Write(b[:n])
		b = b[n:]
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// readDirectory judges everything in front of the payloads: magic,
// version, section count, the directory hash, every entry's kind, place
// and bounds, the file's end and the zero padding no digest covers. The
// directory it returns is sealed, so later bounds can trust it.
func readDirectory(data []byte) ([numSections]dirEntry, error) {
	var dir [numSections]dirEntry
	// Magic and version are judged before the prelude length, so a foreign
	// file or another format revision is named as such however short it is.
	if len(data) < len(magic)+2 {
		return dir, fmt.Errorf("%w: %d bytes cannot hold a snapshot header", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return dir, fmt.Errorf("%w (bad magic %q)", ErrFormat, data[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != Version {
		return dir, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	if len(data) < firstSectionOff {
		return dir, fmt.Errorf("%w: %d bytes cannot hold a snapshot prelude", ErrTruncated, len(data))
	}
	if n := data[len(magic)+2]; n != numSections {
		return dir, fmt.Errorf("%w: %d sections, want %d", ErrCorrupt, n, numSections)
	}
	// The directory hash seals the header and every directory entry; all
	// later bounds can trust what the directory says.
	sum := sha256.Sum256(data[:dirHashOff])
	if !bytes.Equal(sum[:], data[dirHashOff:preludeLen]) {
		return dir, fmt.Errorf("%w: directory carries %x, hashes to %x (%w)",
			ErrFingerprint, data[dirHashOff:dirHashOff+8], sum[:8], ErrCorrupt)
	}
	end := uint64(firstSectionOff)
	for i := range dir {
		b := data[dirOff+i*dirEntryLen:]
		dir[i] = dirEntry{kind: b[0], off: binary.LittleEndian.Uint64(b[8:]), size: binary.LittleEndian.Uint64(b[16:])}
		copy(dir[i].sum[:], b[24:])
		e := &dir[i]
		if e.kind != byte(secMeta+i) {
			return dir, fmt.Errorf("%w: directory entry %d has kind %d", ErrCorrupt, i, e.kind)
		}
		if e.off%sectionAlign != 0 || e.off < end || e.off-end >= sectionAlign {
			return dir, fmt.Errorf("%w: section %d at offset %d, previous ends at %d", ErrCorrupt, e.kind, e.off, end)
		}
		if e.size > uint64(len(data)) || e.off+e.size > uint64(len(data)) {
			return dir, fmt.Errorf("%w: section %d claims [%d, %d) of a %d-byte file",
				ErrTruncated, e.kind, e.off, e.off+e.size, len(data))
		}
		end = e.off + e.size
	}
	if end != uint64(len(data)) {
		return dir, fmt.Errorf("%w: %d bytes after the last section", ErrCorrupt, uint64(len(data))-end)
	}
	// Alignment gaps (prelude pad and inter-section pads) must be zero:
	// they are the only bytes no digest covers.
	if !allZero(data[preludeLen:firstSectionOff]) {
		return dir, fmt.Errorf("%w: nonzero prelude padding", ErrCorrupt)
	}
	prev := uint64(firstSectionOff)
	for i := range dir {
		if !allZero(data[prev:dir[i].off]) {
			return dir, fmt.Errorf("%w: nonzero padding before section %d", ErrCorrupt, dir[i].kind)
		}
		prev = dir[i].off + dir[i].size
	}
	return dir, nil
}

// payload is section e's bytes within data, capped so no view reaches the
// next section.
func payload(data []byte, e *dirEntry) []byte {
	return data[e.off : e.off+e.size : e.off+e.size]
}

// digestError reports section e's payload hashing to sum, not its recorded
// digest.
func digestError(e *dirEntry, sum [sha256.Size]byte) error {
	return fmt.Errorf("%w: section %d carries %x, content hashes to %x (%w)",
		ErrFingerprint, e.kind, e.sum[:8], sum[:8], ErrCorrupt)
}

// decoder accumulates the sections, fed in file order, into one state.
type decoder struct {
	st     gnet.NetworkState
	nPeers int // the meta section's peer count, which the topology must match
}

// section decodes one section's payload b; it must consume b exactly.
func (d *decoder) section(e *dirEntry, b []byte) error {
	r := &cursor{b: b, section: int(e.kind)}
	switch e.kind {
	case secMeta:
		d.nPeers = decodeMeta(r, &d.st)
	case secDict:
		d.st.DictOff, d.st.DictBytes = decodeCSR(r)
	case secTopology:
		decodeTopology(r, &d.st, d.nPeers)
	case secLibraries:
		decodeLibraries(r, &d.st)
	case secIndexes:
		decodeIndexes(r, &d.st)
	case secHolders:
		d.st.HolderOff, d.st.HolderArena = decodeCSR(r)
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("%w: section %d has %d trailing bytes", ErrCorrupt, e.kind, len(r.b)-r.pos)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

func decodeMeta(r *cursor, st *gnet.NetworkState) int {
	st.Config.Seed = r.u64()
	st.Config.UltrapeerFrac = math.Float64frombits(r.u64())
	st.Config.UltraDegree = int(r.u64())
	st.Config.FlatDegree = int(r.u64())
	st.Config.FirewalledFrac = math.Float64frombits(r.u64())
	n := r.u64()
	const maxPeers = 1 << 28
	if r.err == nil && n > maxPeers {
		r.fail("peer count %d out of range", n)
		return 0
	}
	return int(n)
}

// decodeCSR reads what writeCSRSection wrote. The offsets are checked
// only to end at the arena's length; their owners (dict.FromRaw,
// gnet.NewFromState) check the rest.
func decodeCSR(r *cursor) (off []uint32, arena []byte) {
	n := r.u64()
	arenaLen := r.u64()
	if r.err != nil {
		return nil, nil
	}
	// (n+1) u32 offsets plus the arena must fit the remainder — checked by
	// the takes themselves, but bound n first so no absurd count reaches an
	// allocation on the copy-fallback path.
	if n >= uint64(len(r.b))/4 {
		r.fail("claims %d entries in a %d-byte section", n, len(r.b))
		return nil, nil
	}
	off = r.u32s(int(n) + 1)
	arena = r.take(arenaLen)
	if r.err == nil && uint64(off[n]) != arenaLen {
		r.fail("offsets end at %d, arena is %d bytes", off[n], arenaLen)
	}
	return off, arena
}

func decodeTopology(r *cursor, st *gnet.NetworkState, nPeers int) {
	n := r.u64()
	total := r.u64()
	if r.err != nil {
		return
	}
	if n != uint64(nPeers) {
		r.fail("topology holds %d peers, meta says %d", n, nPeers)
		return
	}
	if total > uint64(len(r.b))/4 { // bound it before the size sum below can overflow
		r.fail("%d links cannot fit a %d-byte section", total, len(r.b))
		return
	}
	bitset := uint64((nPeers + 7) / 8)
	want := 16 + 2*bitset + 16*uint64(nPeers)
	want = (want + 3) &^ 3
	want += 4*uint64(nPeers) + 4*total
	if uint64(len(r.b)) != want {
		r.fail("%d peers / %d links need %d bytes, payload has %d", n, total, want, len(r.b))
		return
	}
	fw := r.take(bitset)
	ultra := r.take(bitset)
	st.Firewalled = make([]bool, nPeers)
	st.Peers = make([]gnet.PeerState, nPeers)
	for i := range st.Firewalled {
		st.Firewalled[i] = fw[i/8]&(1<<(i%8)) != 0
		st.Peers[i].Ultrapeer = ultra[i/8]&(1<<(i%8)) != 0
	}
	for i := range st.Peers {
		copy(st.Peers[i].ServentID[:], r.take(16))
	}
	r.pad4()
	deg := r.u32s(nPeers)
	nbr := r.u32s(int(total))
	if r.err != nil {
		return
	}
	// Neighbor lists are always heap (they are []int and mutable); one
	// arena allocation backs all of them, capped subslices per peer.
	arena := make([]int, total)
	for i, v := range nbr {
		if uint64(v) >= n {
			r.fail("neighbor entry %d links to nonexistent peer %d", i, v)
			return
		}
		arena[i] = int(v)
	}
	pos := 0
	for i := range st.Peers {
		d := int(deg[i])
		if pos+d > len(arena) {
			r.fail("degrees sum past the %d declared links", total)
			return
		}
		st.Peers[i].Neighbors = arena[pos : pos+d : pos+d]
		pos += d
	}
	if pos != len(arena) {
		r.fail("degrees sum to %d, topology declares %d links", pos, total)
	}
}

func decodeLibraries(r *cursor, st *gnet.NetworkState) {
	n := r.u64()
	total := r.u64()
	if r.err != nil {
		return
	}
	if n != uint64(len(st.Peers)) {
		r.fail("libraries hold %d peers, meta says %d", n, len(st.Peers))
		return
	}
	if total > uint64(len(r.b))/12 { // every file costs three u32 columns
		r.fail("%d files cannot fit a %d-byte section", total, len(r.b))
		return
	}
	// One File arena backs every library; names view the payload in place.
	arena := make([]gnet.File, total)
	used := 0
	for i := range st.Peers {
		nFiles := int(r.u32())
		if r.err != nil {
			return
		}
		if nFiles > len(arena)-used {
			r.fail("peer %d overflows the %d declared files", i, total)
			return
		}
		row := arena[used : used+nFiles : used+nFiles]
		used += nFiles
		fidx := r.u32s(nFiles)
		fsize := r.u32s(nFiles)
		nameLen := r.u32s(nFiles)
		if r.err != nil {
			return
		}
		for j := range row {
			row[j].Index = fidx[j]
			row[j].Size = fsize[j]
			row[j].Name = unsafeString(r.take(uint64(nameLen[j])))
		}
		r.pad4()
		if r.err != nil {
			return
		}
		st.Peers[i].Library = row
	}
	if used != len(arena) {
		r.fail("rows hold %d files, header declares %d", used, total)
	}
}

func decodeIndexes(r *cursor, st *gnet.NetworkState) {
	n := r.u64()
	totalBlocks := r.u64()
	totalArena := r.u64()
	if r.err != nil {
		return
	}
	if n != uint64(len(st.Peers)) {
		r.fail("indexes hold %d peers, meta says %d", n, len(st.Peers))
		return
	}
	if totalBlocks > uint64(len(r.b))/8 || totalArena > uint64(len(r.b)) {
		r.fail("%d blocks / %d arena bytes cannot fit a %d-byte section", totalBlocks, totalArena, len(r.b))
		return
	}
	var blocks, arena uint64
	for i := range st.Peers {
		ix := &st.Peers[i].Index
		if decodeIndexRow(r, i, ix); r.err != nil {
			return
		}
		blocks += uint64(len(ix.BlockFirst))
		arena += uint64(len(ix.Arena))
	}
	if blocks != totalBlocks || arena != totalArena {
		r.fail("rows hold %d blocks / %d arena bytes, header declares %d / %d",
			blocks, arena, totalBlocks, totalArena)
	}
}

// decodeIndexRow reads what appendIndexRow wrote for peer i, as views.
func decodeIndexRow(r *cursor, i int, ix *gnet.IndexState) {
	nTerms := r.u32()
	nPostings := r.u32()
	arenaLen := r.u32()
	if r.err != nil {
		return
	}
	const maxTermsPerPeer = 1 << 30
	if nTerms > maxTermsPerPeer || nPostings > math.MaxInt32 {
		r.fail("peer %d index claims %d terms / %d postings", i, nTerms, nPostings)
		return
	}
	ix.NTerms = int(nTerms)
	ix.NPostings = int(nPostings)
	nBlocks := (int(nTerms) + 15) / 16
	ix.BlockFirst = u32ToTermIDs(r.u32s(nBlocks))
	ix.BlockOff = r.u32s(nBlocks)
	ix.Arena = r.take(uint64(arenaLen))
	r.pad4()
	if r.err == nil && nBlocks > 0 && uint64(ix.BlockOff[nBlocks-1]) >= uint64(arenaLen) {
		r.fail("peer %d last block offset %d beyond %d-byte arena", i, ix.BlockOff[nBlocks-1], arenaLen)
	}
}

// cursor is the payload cursor: positional (so padding is checkable against
// absolute section offsets), error-latched, and zero-copy where alignment
// and endianness allow.
type cursor struct {
	b       []byte
	pos     int
	section int
	err     error
}

func (r *cursor) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w %d: %s", ErrCorrupt, r.section, fmt.Sprintf(format, args...))
	}
}

// take consumes n payload bytes as a zero-copy view.
func (r *cursor) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail("needs %d bytes, %d left", n, len(r.b)-r.pos)
		return nil
	}
	p := r.b[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return p
}

func (r *cursor) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *cursor) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// u32s consumes an n-entry u32 array. On little-endian hosts with the
// expected 4-byte alignment it returns an in-place view of the payload
// (this is the zero-copy path mapped loads live on); otherwise it decodes
// into a fresh slice.
func (r *cursor) u32s(n int) []uint32 {
	if r.err == nil && (n < 0 || uint64(n) > uint64(len(r.b)-r.pos)/4) {
		r.fail("needs %d u32s, %d bytes left", n, len(r.b)-r.pos)
	}
	p := r.take(4 * uint64(n))
	if p == nil || n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&p[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out
}

// pad4 consumes the zero padding that realigns the cursor to 4 bytes.
func (r *cursor) pad4() {
	if pad := (-r.pos) & 3; pad > 0 {
		p := r.take(uint64(pad))
		if p != nil && !allZero(p) {
			r.fail("nonzero row padding at %d", r.pos-pad)
		}
	}
}

// readFileBytes reads path fully into one heap buffer (the copying load
// path; parseSnapshot then views that buffer exactly as it would a mapping).
func readFileBytes(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size > math.MaxInt-1 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return data, nil
}
