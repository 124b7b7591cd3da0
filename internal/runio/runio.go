// Package runio stores sorted runs on a vfs.FS.
//
// The reader and the writers are generic over the element type T: a
// codec.Codec[T] turns elements into bytes and back, and a caller-supplied
// comparator validates that runs really are written in run order. Fixed
// width codecs reproduce the library's historical on-disk layout exactly;
// variable-width codecs store length-prefixed elements that may span page
// and file boundaries.
//
// Two on-disk layouts are provided:
//
//   - Forward runs: a single file of elements in ascending order, written
//     and read sequentially through a page-sized buffer.
//
//   - Backward runs (Appendix A of the thesis): streams produced in
//     *descending* order (streams 2 and 4 of 2WRS) are laid out so the merge
//     phase can later read them sequentially *forward* in ascending order,
//     because disks favour forward sequential access. Each backward stream is
//     a chain of fixed-size files of k pages; bytes are written from the
//     tail of the file toward its head, a block of pages at a time, page 0
//     holds a header {index, pages, startPage, startPos, records}, and files
//     are named "base.N" in creation order. Ascending reads open the files in
//     reverse creation order and scan forward from the header's start
//     position.
//
// Writing is one contract over two fill loops. A run generator opens each
// output stream with Emitter.Stream(role, descending) and holds a
// StreamWriter — Write, WriteBatch, Close, and Segment, the finished
// stream's own description — without knowing the layout behind it. Writer
// (forward files) and BackwardWriter (chains) are the two layouts; what
// they share is written once, in the streamBase both embed: the run-order
// check in the stream's direction, the element count and chain-file count
// of the segment being built, its content checksum (Segment.Sum) under an
// emitter with Checksums on, Close, and the abort by which Emitter.AbortOpen
// closes every stream still live on a failure path. What they do not share
// is their fill loop: one fills a pooled block front to back, the other
// fills a pooled block of whole pages back to front and stores it over a
// page range of the current chain file. Segment.EachFile is the one place
// that knows which files a segment consists of.
//
// Reading is one type. Reader decodes a list of spill files in ascending read
// order through one buffer, opening each file as the one before it drains:
// once a chain file's header is checked and its payload positioned, both
// layouts are byte streams and are read alike. A partial element at the end
// of a chain file is completed from the next one (variable-width encodings
// span them); at the end of a segment it is a truncated tail and is dropped.
// NewReader, NewBackwardReader, OpenSegment and OpenRun differ only in the
// file list they build.
//
// A Run is an ordered list of segments (forward or backward), and OpenRun
// returns it as its sorted pieces. A concatenable run is one piece: a Reader
// over the files of all its segments, which is how the four 2WRS output
// streams become one logical sorted run: rev(4) + 3 + rev(2) + 1. A run whose
// stream ranges overlap is a piece — a Reader — per non-empty segment, each
// sorted, and the merge makes every piece a leaf of its own tree; runio
// merges nothing. A piece knows how many records each of its segments holds
// and fails, with an error matching storage.ErrCorrupt, when one ends on
// another count.
//
// Readers speak the batch protocol only (stream.BatchReader): everything
// that reads a run reads it a batch at a time.
//
// Both layouts reach the file system through a storage.Backend: the raw
// backend reproduces the historical bytes exactly, while the block backend
// adds per-block CRC32 checksums and optional compression. runio deals in
// pages and chain files; how those become bytes at rest is the backend's
// concern.
//
// Both write paths and the read path move blocks, not records. WriteBatch
// and ReadBatch encode and decode a page of elements per call through the
// codec's bulk kernels (codec.Bulk; other codecs keep the element loop
// inside the same page loop). Writers' blocks and a reader's buffer come
// from the backend's pool (storage.PoolOf) and return to it when the file
// closes, so they are reused across runs, merge operations and passes; a
// forward block carries storage.FrameHeadroom spare bytes so a framing
// backend stores it with one write, a chain block is one write of its
// pages, and a backend that holds verified blocks lends them to the reader
// instead of copying (Reader.refill, the one place reads touch storage). At
// every Parallelism of a sort, every writer — a run generator's and a merge
// output's alike — creates, writes and closes its files on its caller's
// goroutine, so a file is complete when the writer's Close returns. Nothing
// in the package starts a goroutine.
package runio

import (
	"errors"
	"hash/crc32"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/stream"
)

// DefaultPageSize is the file-system page size assumed by the thesis (ext3).
const DefaultPageSize = 4096

// DefaultPagesPerFile is the thesis' k = 1000 pages (≈4 MB files at 4 KB
// pages; the thesis reports 40 MB with its larger pages).
const DefaultPagesPerFile = 1000

// BackwardPages sizes backward chain files to the data a run's descending
// streams actually carry (about one memory-load of elements each), instead
// of the thesis' fixed DefaultPagesPerFile. Backward files are materialised
// at full size and written from the tail, so a file far larger than its
// stream wastes space — and, on the in-memory FS, real zeroed allocation —
// per run. Streams that outgrow one file simply chain to the next, so this
// is pure tuning: run boundaries and the format are unchanged.
func BackwardPages(memory, elemBytes int) int {
	pages := (2*memory*elemBytes+DefaultPageSize-1)/DefaultPageSize + 2
	return min(max(pages, 4), DefaultPagesPerFile)
}

// ErrOutOfOrder reports an element written against the run's sort direction,
// which always means a bug or corruption upstream.
var ErrOutOfOrder = errors.New("runio: record out of order")

// bufSize normalizes a requested buffer size: defaults, then for fixed-width
// codecs rounds down to a whole number of elements (floored at one).
func bufSize(bufBytes, fixed int) int {
	if bufBytes <= 0 {
		bufBytes = DefaultPageSize
	}
	if fixed > 0 {
		bufBytes -= bufBytes % fixed
		if bufBytes < fixed {
			bufBytes = fixed
		}
	}
	return bufBytes
}

// Writer writes an ascending forward run block by block: encoded elements
// fill a pooled block, and each full one becomes one block of the storage
// backend's stream (a plain byte range on the raw backend, a checksummed —
// optionally compressed — frame on the block backend). The writer creates,
// appends to and closes its file on its caller's goroutine, so the file is
// complete when Close returns.
type Writer[T any] struct {
	streamBase[T]
	f      storage.BlockWriter
	pool   *storage.Pool
	fixed  int    // c.FixedSize()
	buf    []byte // the block being filled: FrameHeadroom spare bytes, then the page
	target int    // page bytes at which the block is flushed
}

// headroom is where a block's page starts: the bytes before it are the
// storage backend's, for its frame.
const headroom = storage.FrameHeadroom

// castagnoli selects CRC-32C, which the hardware computes: an element is a
// dozen-odd bytes, where the byte-table IEEE polynomial cost more than
// encoding it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ContentSum folds one encoded element into an order-insensitive content
// checksum: the 64-bit sum of per-element CRC-32Cs. Because addition
// commutes, the ascending forward writer, the descending backward writer
// and an ascending validation re-read all compute the same value for the
// same element multiset — which is what lets one checksum definition cover
// every run layout (see internal/manifest).
func ContentSum(sum uint64, encoded []byte) uint64 {
	return sum + uint64(crc32.Checksum(encoded, castagnoli))
}

// NewWriter creates the named spill stream on st and returns a Writer with
// the given buffer size in bytes (0 means DefaultPageSize), encoding
// elements with c and validating write order with less. A failed create
// fails the call.
func NewWriter[T any](st storage.Backend, name string, bufBytes int, c codec.Codec[T], less func(a, b T) bool) (*Writer[T], error) {
	f, err := st.Create(name)
	if err != nil {
		return nil, err
	}
	w := &Writer[T]{f: f, pool: storage.PoolOf(st), fixed: c.FixedSize()}
	w.streamBase = newStreamBase(Segment{Name: name}, c, less, w)
	w.target = bufSize(bufBytes, w.fixed)
	w.buf = w.pool.Get(headroom + w.target)[:headroom]
	return w, nil
}

// Write appends r to the run. Elements must arrive in non-decreasing order.
// It is WriteBatch for one element, kept apart so that the element does not
// have to live in a slice.
func (w *Writer[T]) Write(r T) error {
	if err := w.admit(r); err != nil {
		return err
	}
	prev := len(w.buf)
	w.buf = w.c.Append(w.buf, r)
	if w.summed {
		w.sum = ContentSum(w.sum, w.buf[prev:])
	}
	if len(w.buf)-headroom >= w.target {
		return w.flush()
	}
	return nil
}

// WriteBatch appends every element of src in order, a page at a time:
// each turn of its loop takes the elements that still fit the page — with a
// fixed-width codec that is known up front, with a variable-width one it is
// one element — validates their order, encodes them (in one call where the
// codec has bulk kernels), folds each into the content checksum when one is
// kept, and flushes the page when it is full. The page-flush boundaries,
// and so the bytes stored, are those of element writes.
func (w *Writer[T]) WriteBatch(src []T) error {
	if w.closed {
		return stream.ErrClosed
	}
	for len(src) > 0 {
		n := 1
		if w.fixed > 0 {
			n = min(len(src), max((w.target-(len(w.buf)-headroom))/w.fixed, 1))
		}
		page := src[:n]
		if err := w.admitAll(page); err != nil {
			return err
		}
		at := len(w.buf)
		if w.bulk != nil {
			w.buf = w.bulk.AppendAll(w.buf, page)
		} else {
			for _, r := range page {
				w.buf = w.c.Append(w.buf, r)
			}
		}
		if w.summed {
			size := (len(w.buf) - at) / n
			for ; at < len(w.buf); at += size {
				w.sum = ContentSum(w.sum, w.buf[at:at+size])
			}
		}
		src = src[n:]
		if len(w.buf)-headroom >= w.target {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush appends the block being filled to the file and starts it over.
func (w *Writer[T]) flush() error {
	if len(w.buf) == headroom {
		return nil
	}
	if err := storage.AppendBlock(w.f, w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:headroom]
	return nil
}

// release returns the writer's block to the pool and closes the file.
func (w *Writer[T]) release() error {
	w.pool.Put(w.buf)
	w.buf = nil
	return w.f.Close()
}
