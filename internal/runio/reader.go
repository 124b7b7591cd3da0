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
// buffer: a forward run, a backward chain, or every segment of a
// concatenable run, depending on the file list it was built over. Files
// are opened one at a time, each when the one before it is drained.
type Reader[T any] struct {
	st     storage.Backend
	c      codec.Codec[T]
	files  []spillFile         // not yet opened, in read order
	src    storage.BlockReader // the open file; nil between files
	buf    []byte
	have   int   // valid bytes in buf
	pos    int   // consumed bytes in buf
	err    error // met after the last element decoded; the next call returns it
	closed bool
}

func newReader[T any](st storage.Backend, files []spillFile, bufBytes int, c codec.Codec[T]) *Reader[T] {
	return &Reader[T]{st: st, c: c, files: files, buf: make([]byte, bufSize(bufBytes, c.FixedSize()))}
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

// Read returns the next element or io.EOF.
func (r *Reader[T]) Read() (T, error) {
	var one [1]T
	_, err := r.ReadBatch(one[:])
	return one[0], err
}

// ReadBatch decodes up to len(dst) elements per the stream.BatchReader
// contract: an error met after some elements were decoded waits for the
// next call. A trailing partial element means corruption upstream and
// reads as a clean end of its segment, matching the historical fixed-width
// behaviour.
func (r *Reader[T]) ReadBatch(dst []T) (int, error) {
	if r.closed {
		return 0, stream.ErrClosed
	}
	n := 0
	for n < len(dst) && r.err == nil {
		if r.pos < r.have {
			v, k, err := r.c.Decode(r.buf[r.pos:r.have])
			if err == nil {
				dst[n] = v
				n++
				r.pos += k
				continue
			}
			if !errors.Is(err, codec.ErrShort) {
				r.err = err
				continue
			}
		}
		r.err = r.refill()
	}
	if n > 0 || len(dst) == 0 {
		return n, nil
	}
	err := r.err
	r.err = nil
	return 0, err
}

// refill moves any partial element to the front of the buffer and reads
// more bytes behind it — growing the buffer when one element outgrows it,
// moving to the next file when the open one is drained — and returns io.EOF
// once the last file is. It is the only place the reader touches storage.
func (r *Reader[T]) refill() error {
	r.have = copy(r.buf, r.buf[r.pos:r.have])
	r.pos = 0
	for {
		if r.src == nil {
			if err := r.openNext(); err != nil {
				return err
			}
		}
		if r.have == len(r.buf) {
			r.buf = append(r.buf, make([]byte, len(r.buf))...)
		}
		n, err := r.src.Read(r.buf[r.have:])
		if err != nil && err != io.EOF {
			return err
		}
		if n > 0 {
			r.have += n
			return nil
		}
		src := r.src
		r.src = nil
		if err := src.Close(); err != nil {
			return err
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
		return err
	}
	r.files, r.src = r.files[1:], src
	if !f.joins {
		r.have = 0
	}
	return nil
}

// Close releases the open file, if any.
func (r *Reader[T]) Close() error {
	if r.closed {
		return stream.ErrClosed
	}
	r.closed = true
	if r.src != nil {
		return r.src.Close()
	}
	return nil
}
