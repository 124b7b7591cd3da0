package runio

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/stream"
)

// spillFile is one file of a run as the reader meets it. The zero value
// plus a name is a forward file; a backward chain file also carries the
// chain index its header must show.
type spillFile struct {
	name  string
	paged bool // backward chain file: header page, then payload from its start position
	index int  // paged: position in the chain, in creation order
	// joins marks a chain file that continues the byte stream of the file
	// read before it: a variable-width element may span the two. Every other
	// file starts a segment, where a partial element left over from the
	// previous one is a truncated tail and is dropped.
	joins bool
	// seg is the name of the segment the file belongs to, and records, in
	// a segment read as part of a run (OpenRun), the number of records it
	// holds: when its last file (index 0) is drained the reader must have
	// yielded exactly that many since the segment began. records 0 checks
	// nothing.
	seg     string
	records int64
}

// open returns the file's payload as one ascending byte stream. A chain
// file is positioned past its validated header first, after which both
// layouts are read alike.
func (f spillFile) open(st storage.Backend) (storage.BlockReader, error) {
	if !f.paged {
		return st.Open(f.name)
	}
	pr, err := st.OpenPaged(f.name)
	if err != nil {
		return nil, err
	}
	var raw [headerSize]byte
	var hdr header
	if err = pr.ReadHeader(raw[:]); err == nil {
		hdr, err = decodeHeader(raw[:])
	}
	if err == nil && hdr.index != uint32(f.index) {
		err = fmt.Errorf("runio: backward file %s has index %d, want %d", f.name, hdr.index, f.index)
	}
	if err == nil {
		err = pr.Seek(int(hdr.startPage), int(hdr.startPos), int(hdr.pageSize), int(hdr.pages))
	}
	if err != nil {
		pr.Close()
		return nil, err
	}
	return pr, nil
}

// Reader reads spill files back to back in ascending order through one
// pooled buffer: a forward run, a backward chain, or every segment of a
// concatenable run, depending on the file list it was built over. Files
// are opened one at a time, each when the one before it is drained.
type Reader[T any] struct {
	st     storage.Backend
	pool   *storage.Pool
	c      codec.Codec[T]
	bulk   codec.Bulk[T]       // c's bulk kernels, when it is fixed-width and has them
	fixed  int                 // c.FixedSize()
	files  []spillFile         // not yet opened, in read order
	cur    spillFile           // the file opened last
	got    int64               // records yielded since cur's segment began
	src    storage.BlockReader // the open file; nil between files
	size   int                 // bytes per read: the buffer budget
	own    []byte              // the reader's buffer, from the pool, once it needs one
	buf    []byte              // the bytes being decoded: a prefix of own
	pos    int                 // consumed bytes of buf
	err    error               // met after the last element decoded; the next call returns it
	closed bool
	// inline holds files for a run of one file, and self is the one-piece
	// list OpenRun returns for a concatenable run (OpenRun).
	inline [1]spillFile
	self   [1]*Reader[T]
}

func newReader[T any](st storage.Backend, files []spillFile, bufBytes int, c codec.Codec[T]) *Reader[T] {
	r := &Reader[T]{st: st, pool: storage.PoolOf(st), c: c, fixed: c.FixedSize(), files: files}
	r.size = bufSize(bufBytes, r.fixed)
	if r.fixed > 0 {
		r.bulk, _ = c.(codec.Bulk[T])
	}
	return r
}

// NewReader opens the named forward run on st with a read buffer of bufBytes
// (0 means DefaultPageSize), decoding elements with c.
func NewReader[T any](st storage.Backend, name string, bufBytes int, c codec.Codec[T]) (*Reader[T], error) {
	return OpenSegment(st, Segment{Name: name}, bufBytes, c)
}

// NewBackwardReader returns an ascending reader over a chain of `files`
// backward files under base: the files in reverse creation order, each
// scanned forward from its header's start position, elements that span a
// file boundary reassembled across it. bufBytes of 0 means DefaultPageSize.
func NewBackwardReader[T any](st storage.Backend, base string, files, bufBytes int, c codec.Codec[T]) (*Reader[T], error) {
	return OpenSegment(st, Segment{Name: base, Backward: true, Files: files}, bufBytes, c)
}

// decode returns the next element through the codec's element method. With
// no whole element buffered it refills instead — or fails to, leaving the
// reason in r.err — and reports false.
func (r *Reader[T]) decode() (v T, ok bool) {
	if r.pos < len(r.buf) {
		v, k, err := r.c.Decode(r.buf[r.pos:])
		if err == nil {
			r.pos += k
			r.got++
			return v, true
		}
		if !errors.Is(err, codec.ErrShort) {
			r.err = err
			return v, false
		}
	}
	r.err = r.refill()
	return v, false
}

// ReadBatch decodes up to len(dst) elements per the stream.BatchReader
// contract — a buffer's worth per call of the codec's bulk kernel, where it
// has one — and an error met after some elements were decoded waits for the
// next call. A trailing partial element means corruption upstream and reads
// as the end of its segment; a piece of a run, which knows the record count of
// each segment, turns an end on any other count into an error matching
// storage.ErrCorrupt (refill) — a run file cut short must fail the merge, not
// shorten its output.
func (r *Reader[T]) ReadBatch(dst []T) (int, error) {
	if r.closed {
		return 0, stream.ErrClosed
	}
	n := 0
	for n < len(dst) && r.err == nil {
		if r.bulk == nil {
			if v, ok := r.decode(); ok {
				dst[n] = v
				n++
			}
		} else if k := r.bulk.DecodeAll(dst[n:], r.buf[r.pos:]); k > 0 {
			n += k
			r.got += int64(k)
			r.pos += k * r.fixed
		} else {
			r.err = r.refill()
		}
	}
	if n > 0 || len(dst) == 0 {
		return n, nil
	}
	err := r.err
	r.err = nil
	return 0, err
}

// refill replaces the drained buffer with the stream's next bytes — moving
// to the next file when the open one is drained — and returns io.EOF once
// the last file is. The partial element left over moves to the front of the
// reader's buffer and more bytes are read behind it, into a larger buffer
// when one element outgrows it. A drained file that ends a segment of known
// length must have brought the segment to exactly that length. It is the
// only place the reader touches storage.
func (r *Reader[T]) refill() error {
	rest := r.buf[r.pos:]
	r.buf, r.pos = rest, 0
	for {
		if r.src == nil {
			if err := r.openNext(); err != nil {
				return err
			}
			rest = r.buf
		}
		if len(rest) >= len(r.own) {
			grown := r.pool.Get(max(r.size, 2*len(rest)))
			copy(grown, rest)
			r.pool.Put(r.own)
			r.own = grown
		} else {
			copy(r.own, rest)
		}
		rest = r.own[:len(rest)]
		r.buf = rest
		n, err := r.src.Read(r.own[len(rest):])
		if err != nil && err != io.EOF {
			return r.failed(r.cur, err)
		}
		if n > 0 {
			r.buf = r.own[:len(rest)+n]
			return nil
		}
		src := r.src
		r.src = nil
		if err := src.Close(); err != nil {
			return r.failed(r.cur, err)
		}
		if want := r.cur.records; want > 0 && r.cur.index == 0 {
			if r.got != want {
				return fmt.Errorf("%w: runio: %s ended after %d of its %d records", storage.ErrCorrupt, r.cur.seg, r.got, want)
			}
			r.got = 0
		}
	}
}

// openNext opens the next file of the list, or returns io.EOF when none is
// left. The list advances only on success, so a failed open is met again.
func (r *Reader[T]) openNext() error {
	if len(r.files) == 0 {
		return io.EOF
	}
	f := r.files[0]
	src, err := f.open(r.st)
	if err != nil {
		return r.failed(f, err)
	}
	r.files, r.cur, r.src = r.files[1:], f, src
	if !f.joins {
		r.buf, r.pos = nil, 0
	}
	return nil
}

// failed says where in the run a storage error met reading file f struck:
// the segment's name and the records it had yielded by then, of how many.
func (r *Reader[T]) failed(f spillFile, err error) error {
	if f.records > 0 {
		return fmt.Errorf("runio: %s after %d of its %d records: %w", f.seg, r.got, f.records, err)
	}
	return fmt.Errorf("runio: %s after %d records: %w", f.seg, r.got, err)
}

// Close releases the open file, if any, and the reader's buffer.
func (r *Reader[T]) Close() error {
	if r.closed {
		return stream.ErrClosed
	}
	r.closed = true
	r.pool.Put(r.own)
	r.own, r.buf = nil, nil
	if r.src != nil {
		return r.src.Close()
	}
	return nil
}
