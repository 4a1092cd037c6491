// Shard-and-spill snapshot construction: build a paper-scale (or larger)
// network substrate directly into a snapshot file while holding only one
// bounded shard of peers in memory.
//
// The in-heap pipeline (catalog → network → indexes → Save) materializes
// every library string and posting arena before the first byte is written:
// ~2.3 GB of heap at the paper's 37,572-peer scale, and far past this
// box's budget at a million peers. BuildSharded reorders the work so peak
// memory is O(one shard + the shared dictionary):
//
//  1. Topology skeleton. gnet.New draws identities, the firewalled mask
//     and the overlay from the same named streams as the in-heap path.
//  2. Placement pass, a two-stage pipeline (streamPlacements).
//     catalog.Stream generates the content population without retaining
//     it, and its sink only appends each (peer, name) placement to a batch
//     of placeBatch; full batches go, in stream order, to one interning
//     goroutine, and come back empty through a free list. That goroutine
//     runs the per-placement body: one dict.Interner tokenizes each placed
//     name — the only time the build tokenizes it — and the placement is
//     appended to its shard's spill bucket (varint peer, varint length,
//     name bytes, varint count and the varint provisional term IDs of the
//     name's distinct tokens) while per-peer file and term-ID counts
//     accumulate. A name placed again straight after itself (a canonical
//     name's replicas, a non-specific name's peers) reuses the IDs already
//     resolved rather than being tokenized again. The body sees the
//     placements in the order a direct sink would, so provisional IDs and
//     spilled bytes do not depend on the pipeline. A spill failure stops
//     the stream at its next handoff, and the pass returns only after the
//     interning goroutine has exited.
//  3. dict.Merge turns the interner into the dictionary — byte-identical
//     to the in-heap dict because IDs are assigned in sorted term order —
//     and the provisional→final remap table, sorting the vocabulary in
//     runs on the workers and merging the runs (their number follows the
//     vocabulary's size, not the worker count). The meta, dict and
//     topology sections stream out, and the skeleton is released.
//  4. Shard pass, ascending. Each bucket is read back, its libraries are
//     rebuilt (names are zero-copy views of the bucket buffer, sizes come
//     off the one sequential gnet/file-sizes stream, which ascending order
//     keeps in global peer order) beside each peer's term IDs, posting
//     indexes are encoded from those IDs through the remap in parallel
//     (gnet.IndexBuilder), and the peers' library rows stream into the
//     libraries section while their index rows spill to one side file —
//     the indexes section's header needs totals the pass is still
//     accumulating.
//  5. The side file is replayed through the writer as the indexes section.
//  6. The holder index is inverted from the same rows, read through a
//     mapping of the side file (page cache, not heap), and streams out as
//     the holders section in term-range pieces sized by the shard — the
//     builder holds 8 bytes of pass state per term and one row offset per
//     peer, never the whole holder arena. The directory is patched, and
//     the file renames into place.
//
// Every row goes through the same append encoders Save uses and every
// random draw comes off the same named stream in the same order, so the
// output is byte-for-byte the file Save would have produced from the
// in-heap build — at any worker count and any shard size.
package snapshot

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"querycentric/internal/catalog"
	"querycentric/internal/dict"
	"querycentric/internal/gmsg"
	"querycentric/internal/gnet"
	"querycentric/internal/parallel"
	"querycentric/internal/vpost"
)

// DefaultShardSize is the peers-per-shard bound when BuildConfig leaves
// ShardSize zero.
const DefaultShardSize = 65536

// maxShards bounds the number of spill buckets (each holds an open file
// descriptor for the duration of the placement pass). Smaller requested
// shard sizes are rounded up to keep within it.
const maxShards = 512

// BuildConfig configures a sharded snapshot build.
type BuildConfig struct {
	Catalog catalog.Config // content population; Peers fixes the network size
	Network gnet.Config    // overlay topology
	Workers int            // parallelism bound; ≤ 0 means GOMAXPROCS
	// ShardSize is the number of peers whose libraries and indexes are
	// resident at once. Zero means DefaultShardSize; values that would
	// need more than maxShards buckets are rounded up.
	ShardSize int
}

// BuildStats reports what a sharded build produced and where its wall
// time went. The four legs tile the build: Placing runs from the call to
// the end of the placement pass (skeleton included), Merging covers
// dict.Merge and the meta, dict and topology sections, Sharding the shard
// pass, and Holding the indexes and holders sections through the rename.
type BuildStats struct {
	Peers      int
	Placements int   // total (peer, name) placements = total library files
	Shards     int   // bucket count actually used
	ShardSize  int   // effective peers per shard after clamping
	DictTerms  int   // distinct terms in the shared dictionary
	FileBytes  int64 // final snapshot size

	Placing, Merging, Sharding, Holding time.Duration
}

// BuildSharded builds the network of cfg directly into a snapshot at path
// without ever holding the whole substrate in memory.
// The file is written to path+".tmp" and renamed into place on success.
// The output is byte-identical to Save over the equivalent in-heap build
// (catalog.BuildWorkers → gnet.NewFromCatalogWorkers → Save).
func BuildSharded(path string, cfg BuildConfig) (*BuildStats, error) {
	t0 := time.Now()
	n := cfg.Catalog.Peers
	if n <= 0 {
		return nil, fmt.Errorf("snapshot: BuildSharded: catalog has no peers")
	}
	shardSize := cfg.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	if minSize := (n + maxShards - 1) / maxShards; shardSize < minSize {
		shardSize = minSize
	}
	if shardSize > n {
		shardSize = n
	}
	nShards := (n + shardSize - 1) / shardSize
	// Spill files sit beside the output (same filesystem as the snapshot,
	// like the .tmp rename).
	tmpDir := filepath.Dir(path)

	// Topology skeleton: identities, firewalled mask, overlay — no content.
	nw, err := gnet.New(cfg.Network, n)
	if err != nil {
		return nil, fmt.Errorf("snapshot: BuildSharded: %w", err)
	}
	netCfg := nw.Config // normalized (degree defaults applied)

	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()

	// Placement pass: intern every placed name once and spill it, with its
	// provisional term IDs, to its shard's bucket while the vocabulary and
	// per-peer counts accumulate. The body below runs on the interning
	// goroutine, which alone touches its state until streamPlacements
	// returns.
	buckets := make([]*spillFile, nShards)
	for s := range buckets {
		b, err := newSpillFile(tmpDir, "qcsnap-bucket-*")
		if err != nil {
			return nil, err
		}
		buckets[s] = b
		cleanup = append(cleanup, b.discard)
	}
	in := dict.NewInterner()
	counts := make([]int32, n)  // files per peer
	idCount := make([]int32, n) // resolved term IDs per peer, summed over its files
	var rec []byte
	var ids []dict.TermID
	var prev string // ids holds prev's term IDs
	placed, err := streamPlacements(cfg.Catalog, cfg.Workers, func(peer int, name string) error {
		if name != prev { // a repeat reuses ids (file comment, step 2)
			ids, prev = in.AppendIDs(ids[:0], name), name
		}
		counts[peer]++
		idCount[peer] += int32(len(ids))
		rec = vpost.AppendUvarint(rec[:0], uint64(peer))
		rec = vpost.AppendUvarint(rec, uint64(len(name)))
		rec = append(rec, name...)
		rec = vpost.AppendUvarint(rec, uint64(len(ids)))
		for _, id := range ids {
			rec = vpost.AppendUvarint(rec, uint64(id))
		}
		_, err := buckets[peer/shardSize].bw.Write(rec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: BuildSharded: %w", err)
	}
	stats := &BuildStats{Peers: n, Placements: placed, Shards: nShards, ShardSize: shardSize}
	stats.Placing, t0 = time.Since(t0), time.Now()

	d, remaps := dict.Merge([]*dict.Interner{in}, cfg.Workers)
	remap := remaps[0]
	in = nil

	out, err := os.Create(path + ".tmp")
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, func() {
		if out != nil {
			out.Close()
			os.Remove(path + ".tmp")
		}
	})
	w, err := NewWriter(out)
	if err != nil {
		return nil, err
	}
	writeMetaSection(w, netCfg, n)
	db, do := d.Raw()
	writeCSRSection(w, secDict, wholeCSR(do, db))
	writeTopologySection(w, topoSource{
		NPeers:     n,
		Firewalled: nw.Firewalled,
		Ultrapeer:  func(i int) bool { return nw.Peers[i].Ultrapeer },
		GUID:       func(i int) gmsg.GUID { return nw.Peers[i].ServentID },
		Neighbors:  func(i int) []int { return nw.Peers[i].Neighbors },
	})
	nw = nil // topology is on disk; drop the skeleton before the shard pass

	side, err := newSpillFile(tmpDir, "qcsnap-indexes-*")
	if err != nil {
		return nil, err
	}
	cleanup = append(cleanup, side.discard)
	stats.Merging, t0 = time.Since(t0), time.Now()

	writeLibrariesHeader(w, n, placed)
	sizeRNG := gnet.NewFileSizeRNG(netCfg.Seed)
	var totalBlocks, totalArena int64
	var row []byte
	for s := 0; s < nShards; s++ {
		lo := s * shardSize
		hi := min(lo+shardSize, n)
		data, err := buckets[s].consume()
		buckets[s] = nil
		if err != nil {
			return nil, err
		}
		// Rebuild the shard's libraries from its bucket: records arrive in
		// placement order, which per peer is exactly library order. Names
		// are views of the bucket buffer — alive for this shard only. Each
		// peer's term IDs land in its own range of one shard-wide array,
		// so its files' IDs are contiguous and off indexes them directly.
		libs := make([][]gnet.File, hi-lo)
		offs := make([][]uint32, hi-lo)
		end := make([]int64, hi-lo) // peer i's range of shardIDs ends here
		var total int64
		for i := range libs {
			libs[i] = make([]gnet.File, 0, counts[lo+i])
			offs[i] = append(make([]uint32, 0, counts[lo+i]+1), uint32(total))
			total += int64(idCount[lo+i])
			end[i] = total
		}
		if total > math.MaxUint32 {
			return nil, fmt.Errorf("snapshot: BuildSharded: shard %d resolves %d term IDs, past uint32 offsets", s, total)
		}
		shardIDs := make([]dict.TermID, total)
		for len(data) > 0 {
			peer, k := vpost.Uvarint(data)
			if k <= 0 || peer < uint64(lo) || peer >= uint64(hi) {
				return nil, fmt.Errorf("snapshot: BuildSharded: bucket %d holds a record for peer %d", s, peer)
			}
			data = data[k:]
			nameLen, k := vpost.Uvarint(data)
			if k <= 0 || nameLen > uint64(len(data)-k) {
				return nil, fmt.Errorf("snapshot: BuildSharded: bucket %d record truncated", s)
			}
			name := unsafeString(data[k : k+int(nameLen) : k+int(nameLen)])
			data = data[k+int(nameLen):]
			p := int(peer) - lo
			libs[p] = append(libs[p], gnet.File{Index: uint32(len(libs[p])), Name: name})
			nIDs, k := vpost.Uvarint(data)
			at := int64(offs[p][len(offs[p])-1])
			if k <= 0 || nIDs > uint64(end[p]-at) {
				return nil, fmt.Errorf("snapshot: BuildSharded: bucket %d record for peer %d holds too many term IDs", s, peer)
			}
			data = data[k:]
			for j := range int(nIDs) {
				id, k := vpost.Uvarint(data)
				if k <= 0 || id >= uint64(len(remap)) {
					return nil, fmt.Errorf("snapshot: BuildSharded: bucket %d holds a bad term ID", s)
				}
				data = data[k:]
				shardIDs[at+int64(j)] = dict.TermID(id)
			}
			offs[p] = append(offs[p], uint32(at)+uint32(nIDs))
		}
		// File sizes come off the one sequential global stream: ascending
		// shard order makes these draws identical to the in-heap build's.
		for i := range libs {
			for j := range libs[i] {
				libs[i][j].Size = gnet.DrawFileSize(sizeRNG)
			}
		}
		states := make([]gnet.IndexState, hi-lo)
		if err := parallel.ForEachWith(cfg.Workers, hi-lo,
			func() *gnet.IndexBuilder { return new(gnet.IndexBuilder) },
			func(b *gnet.IndexBuilder, i int) error {
				states[i] = b.Build(shardIDs, offs[i], remap)
				return nil
			}); err != nil {
			return nil, fmt.Errorf("snapshot: BuildSharded: %w", err)
		}
		for i := range libs {
			row = appendLibraryRow(row[:0], libs[i])
			w.Write(row)
			row = appendIndexRow(row[:0], &states[i])
			if _, err := side.bw.Write(row); err != nil {
				return nil, err
			}
			totalBlocks += int64(len(states[i].BlockFirst))
			totalArena += int64(len(states[i].Arena))
		}
	}
	w.EndSection()
	stats.Sharding, t0 = time.Since(t0), time.Now()

	// Replay the spilled index rows as the final section, now that the
	// header's totals are known. The writer hashes them as they pass.
	writeIndexesHeader(w, n, totalBlocks, totalArena)
	if err := side.replay(w); err != nil {
		return nil, err
	}
	w.EndSection()
	if err := writeHoldersFromRows(w, side, n, d.Len(), cfg.Workers, shardSize*holderPieceBytesPerPeer); err != nil {
		return nil, err
	}
	size, err := w.Finish()
	if err != nil {
		return nil, err
	}
	f := out
	out = nil // cleanup must not remove the file we are about to rename
	if err := f.Close(); err != nil {
		os.Remove(path + ".tmp")
		return nil, err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return nil, err
	}
	stats.DictTerms, stats.FileBytes = d.Len(), size
	stats.Holding = time.Since(t0)
	return stats, nil
}

// placeBatch is how many placements the placement pass hands its
// interning goroutine at once, and placeBatches how many batches circulate
// between the two: enough for the stream to run a batch or two ahead.
const (
	placeBatch   = 4096
	placeBatches = 4
)

// placement is one (peer, name) pair of the catalog stream.
type placement struct {
	peer int
	name string
}

// errPlaceStopped ends the catalog stream once place has failed; the
// caller sees place's own error instead.
var errPlaceStopped = errors.New("snapshot: placement pass stopped")

// streamPlacements runs the placement pass (file comment, step 2) as a
// two-stage pipeline. catalog.Stream draws the population on the calling
// goroutine, and its sink only appends each placement to a batch; full
// batches go, in stream order, to one interning goroutine that calls place
// on every placement, so place sees exactly the sequence a direct sink
// would. Batches return through a free list. After place fails it is not
// called again: the stream stops at its next handoff, and that error is
// returned. The count is the placements the sink accepted: the whole
// population, or those until the stream stopped. streamPlacements returns
// only once the interning goroutine has exited.
func streamPlacements(cfg catalog.Config, workers int, place func(peer int, name string) error) (int, error) {
	// Each channel can hold every batch, so no send blocks: the stream
	// waits only for a free batch, and the interning goroutine only for a
	// full one.
	full := make(chan []placement, placeBatches)
	free := make(chan []placement, placeBatches)
	for range placeBatches - 1 {
		free <- make([]placement, 0, placeBatch)
	}
	var (
		placeErr error // written by the interning goroutine, read after done
		failed   atomic.Bool
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		for b := range full {
			for _, p := range b {
				if placeErr != nil {
					break
				}
				if placeErr = place(p.peer, p.name); placeErr != nil {
					failed.Store(true)
				}
			}
			free <- b[:0]
		}
	}()
	batch := make([]placement, 0, placeBatch)
	accepted := 0
	_, err := catalog.Stream(cfg, workers, catalog.Sink{
		Place: func(peer int, name string) error {
			accepted++
			if batch = append(batch, placement{peer, name}); len(batch) < placeBatch {
				return nil
			}
			full <- batch
			batch = <-free
			if failed.Load() {
				return errPlaceStopped
			}
			return nil
		},
	})
	if err == nil {
		full <- batch
	}
	close(full)
	<-done
	if placeErr != nil {
		err = placeErr
	}
	return accepted, err
}

// holderPieceBytesPerPeer sizes the holders section's streamed pieces in
// proportion to the shard, so inverting the holder index holds a small
// share of what the shard pass held (library rows run to kilobytes per
// peer). The benchmark network's lists run about 900 bytes per peer, so a
// piece there covers about a quarter shard's worth.
const holderPieceBytesPerPeer = 256

// writeHoldersFromRows writes the holders section of the n peers whose
// index rows side holds, in pieces of at most maxPiece arena bytes.
func writeHoldersFromRows(w *Writer, side *spillFile, n, terms, workers, maxPiece int) error {
	if err := side.bw.Flush(); err != nil {
		return err
	}
	rows, backing, err := mapFile(side.f.Name())
	if err != nil {
		return err
	}
	defer backing.Close()
	// One sequential walk finds each row (rows are variable-length) and
	// proves the whole file decodes, so the random-access reads below
	// cannot fail.
	rowOff := make([]int, n)
	r := &cursor{b: rows, section: secIndexes}
	for i := range rowOff {
		rowOff[i] = r.pos
		var ix gnet.IndexState
		if decodeIndexRow(r, i, &ix); r.err != nil {
			return fmt.Errorf("snapshot: BuildSharded: index spill: %w", r.err)
		}
	}
	if r.pos != len(rows) {
		return fmt.Errorf("snapshot: BuildSharded: index spill holds %d bytes past %d rows", len(rows)-r.pos, n)
	}
	enc, err := gnet.NewHolderEncoder(terms, n, func(i int) gnet.IndexState {
		var ix gnet.IndexState
		decodeIndexRow(&cursor{b: rows[rowOff[i]:], section: secIndexes}, i, &ix)
		return ix
	}, workers)
	if err != nil {
		return fmt.Errorf("snapshot: BuildSharded: %w", err)
	}
	writeCSRSection(w, secHolders, csrSource{
		Count:    terms,
		ArenaLen: enc.ArenaLen(),
		Offsets:  enc.Offsets,
		Arena:    func(emit func([]byte)) { enc.Arena(maxPiece, emit) },
	})
	return w.err
}

// spillFile is an unlinked-on-cleanup buffered temp file: written once
// front to back, then either consumed whole (buckets) or replayed into the
// snapshot writer (the index side file).
type spillFile struct {
	f  *os.File
	bw *bufio.Writer
}

// spillWriter is what a spill file's buffer flushes through: the file
// itself. Tests swap it to make spill writes fail.
var spillWriter = func(f *os.File) io.Writer { return f }

func newSpillFile(dir, pattern string) (*spillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &spillFile{f: f, bw: bufio.NewWriterSize(spillWriter(f), 1<<18)}, nil
}

// consume flushes, reads the whole file back and removes it.
func (s *spillFile) consume() ([]byte, error) {
	if err := s.bw.Flush(); err != nil {
		s.discard()
		return nil, err
	}
	data, err := readFileBytes(s.f)
	s.discard()
	return data, err
}

// replay flushes and copies the file's bytes into w.
func (s *spillFile) replay(w io.Writer) error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := io.Copy(w, bufio.NewReaderSize(s.f, 1<<20))
	return err
}

// discard closes and deletes the file (idempotent).
func (s *spillFile) discard() {
	if s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
}
