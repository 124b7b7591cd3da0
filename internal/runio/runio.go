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
//     tail of the file toward its head through a one-page buffer, page 0
//     holds a header {index, pages, startPage, startPos, records}, and files
//     are named "base.N" in creation order. Ascending reads open the files in
//     reverse creation order and scan forward from the header's start
//     position.
//
// Writing is per layout: Writer for forward files, BackwardWriter for chains.
// Reading is not. Reader decodes a list of spill files in ascending read
// order through one buffer, opening each file as the one before it drains:
// once a chain file's header is checked and its payload positioned, both
// layouts are byte streams and are read alike. A partial element at the end
// of a chain file is completed from the next one (variable-width encodings
// span them); at the end of a segment it is a truncated tail and is dropped.
// NewReader, NewBackwardReader, OpenSegment and OpenRun differ only in the
// file list they build.
//
// A Run is an ordered list of segments (forward or backward). A concatenable
// run is read by one Reader over the files of all its segments, which is how
// the four 2WRS output streams become one logical sorted run:
// rev(4) + 3 + rev(2) + 1. A run whose stream ranges overlap gets a Reader
// per segment under the interleaveReader's minimum scan. Read-ahead and
// pooled buffers (ROADMAP item 2b) have one place to go: Reader.refill.
//
// Both layouts reach the file system through a storage.Backend: the raw
// backend reproduces the historical bytes exactly, while the block backend
// adds per-block CRC32 checksums and optional compression, and a tiered
// backend keeps runs in memory under a byte budget. runio deals in pages
// and chain files; how those become bytes at rest is the backend's concern.
package runio

import (
	"errors"
	"fmt"
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

// ErrOutOfOrder reports an element written against the run's sort direction,
// which always means a bug or corruption upstream.
var ErrOutOfOrder = errors.New("runio: record out of order")

// ReadCloser is an element stream with a Close method.
type ReadCloser[T any] interface {
	stream.Reader[T]
	Close() error
}

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

// Writer writes an ascending forward run through a page-sized buffer: each
// full buffer becomes one block of the storage backend's stream (a plain
// byte range on the raw backend, a checksummed — optionally compressed —
// frame on the block backend). Flushing is synchronous by default; Async
// moves it to a background goroutine so encoding overlaps file I/O.
type Writer[T any] struct {
	w      storage.BlockWriter
	c      codec.Codec[T]
	less   func(a, b T) bool
	buf    []byte
	target int
	count  int64
	last   T
	closed bool
	async  *asyncFlusher
	track  func(records int64, sum uint64)
	order  bool // sum is the running StreamSum of the pages, not a ContentSum
	sum    uint64
	// onFinish, when set, runs once when the writer stops being live —
	// at the top of Close or abort. The Emitter uses it to drop the
	// writer from its open-writer tracking.
	onFinish func()
}

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

// StreamSum folds the next encoded bytes into an order-sensitive checksum:
// the running CRC-32C of the whole encoded stream, however it is cut into
// calls. Generator snapshots use it, where an element's position is state.
func StreamSum(sum uint64, encoded []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), castagnoli, encoded))
}

// NewWriter creates the named spill stream on st and returns a Writer with
// the given buffer size in bytes (0 means DefaultPageSize), encoding
// elements with c and validating write order with less.
func NewWriter[T any](st storage.Backend, name string, bufBytes int, c codec.Codec[T], less func(a, b T) bool) (*Writer[T], error) {
	target := bufSize(bufBytes, c.FixedSize())
	w, err := st.Create(name)
	if err != nil {
		return nil, err
	}
	return &Writer[T]{w: w, c: c, less: less, buf: make([]byte, 0, target), target: target}, nil
}

// Async moves page flushing onto a background goroutine behind a
// double-buffered channel, so the caller's encode/heap work overlaps file
// I/O. It must be called before the first Write and returns the writer for
// chaining. The byte layout produced is identical to the synchronous path.
func (w *Writer[T]) Async() *Writer[T] {
	if w.async == nil && !w.closed {
		w.async = newAsyncFlusher(w.w, cap(w.buf))
	}
	return w
}

// Track arranges for fn to receive the element count and the
// order-insensitive content checksum (ContentSum over the encoded
// elements) when the writer closes successfully. It must be installed
// before the first Write; the per-element CRC cost is paid only when a
// tracker is installed.
func (w *Writer[T]) Track(fn func(records int64, sum uint64)) { w.track = fn }

// SumStream makes the writer keep the order-sensitive StreamSum of
// everything it encodes, for Sum to report. It must be called before the
// first Write.
func (w *Writer[T]) SumStream() { w.order = true }

// Sum returns the StreamSum of the pages flushed so far — of the whole
// stream once the writer is closed.
func (w *Writer[T]) Sum() uint64 { return w.sum }

// Write appends r to the run. Elements must arrive in non-decreasing order.
func (w *Writer[T]) Write(r T) error {
	if w.closed {
		return stream.ErrClosed
	}
	if w.count > 0 && w.less(r, w.last) {
		return fmt.Errorf("%w: forward run got %v after %v", ErrOutOfOrder, r, w.last)
	}
	w.last = r
	prev := len(w.buf)
	w.buf = w.c.Append(w.buf, r)
	if w.track != nil {
		w.sum = ContentSum(w.sum, w.buf[prev:])
	}
	w.count++
	if len(w.buf) >= w.target {
		return w.flush()
	}
	return nil
}

// WriteBatch appends every element of src in order; the page-flush
// boundaries, and so the on-disk bytes, are those of element writes.
func (w *Writer[T]) WriteBatch(src []T) error {
	for _, r := range src {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer[T]) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.order {
		w.sum = StreamSum(w.sum, w.buf)
	}
	if w.async != nil {
		next, err := w.async.submit(w.buf)
		if err != nil {
			return err
		}
		w.buf = next
		return nil
	}
	if err := w.w.Append(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Count returns the number of elements written so far.
func (w *Writer[T]) Count() int64 { return w.count }

// Close flushes buffered elements, waits for any asynchronous writes to
// drain, and closes the underlying file.
func (w *Writer[T]) Close() error {
	if w.closed {
		return stream.ErrClosed
	}
	w.closed = true
	if w.onFinish != nil {
		w.onFinish()
	}
	err := w.flush()
	if w.async != nil {
		if aerr := w.async.close(); err == nil {
			err = aerr
		}
	}
	if err != nil {
		w.w.Close()
		return err
	}
	if err := w.w.Close(); err != nil {
		return err
	}
	if w.track != nil {
		w.track(w.count, w.sum)
	}
	return nil
}

// abort force-closes a writer an error path abandoned: buffered data is
// dropped, the background flusher (if any) is drained and joined, and the
// underlying file is closed. Errors are ignored — the caller is about to
// remove or invalidate the file anyway. The join is the point: after abort
// no goroutine of this writer touches the file, so a Discard sweep cannot
// race an in-flight page append.
func (w *Writer[T]) abort() {
	if w.closed {
		return
	}
	w.closed = true
	if w.onFinish != nil {
		w.onFinish()
	}
	if w.async != nil {
		w.async.close()
	}
	w.w.Close()
}
