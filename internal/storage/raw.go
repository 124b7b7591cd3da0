package storage

import (
	"fmt"
	"io"

	"repro/internal/vfs"
)

// rawBackend is the pass-through framing: blocks and pages land on the file
// system exactly where the pre-storage library put them, so the on-disk
// layout is byte-identical and only the accounting is new. It is the
// backend the iosim disk model and every byte-identity test assume.
type rawBackend struct {
	fs   vfs.FS
	c    *counters
	pool *Pool
}

func (b *rawBackend) blockPool() *Pool { return b.pool }

func (b *rawBackend) String() string { return "raw" }

func (b *rawBackend) Stats() IOStats { return b.c.snapshot() }

func (b *rawBackend) Remove(name string) error { return b.fs.Remove(name) }

func (b *rawBackend) Create(name string) (BlockWriter, error) {
	f, err := b.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &rawBlockWriter{f: f, c: b.c}, nil
}

func (b *rawBackend) Open(name string) (BlockReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &rawBlockReader{f: f, c: b.c}, nil
}

func (b *rawBackend) CreatePaged(name string, pageSize, pages int) (PageWriter, error) {
	f, err := b.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &rawPageWriter{f: f, c: b.c, pageSize: pageSize}, nil
}

func (b *rawBackend) OpenPaged(name string) (PageReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &rawPageReader{f: f, c: b.c}, nil
}

// rawBlockWriter appends blocks as a plain byte concatenation.
type rawBlockWriter struct {
	f   vfs.File
	c   *counters
	off int64
}

func (w *rawBlockWriter) Append(p []byte) error {
	if _, err := w.f.WriteAt(p, w.off); err != nil {
		return err
	}
	w.off += int64(len(p))
	w.c.wrote(1, int64(len(p)), int64(len(p)))
	return nil
}

func (w *rawBlockWriter) Close() error { return w.f.Close() }

// rawBlockReader streams a plain file sequentially.
type rawBlockReader struct {
	f   vfs.File
	c   *counters
	off int64
}

func (r *rawBlockReader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	if n > 0 {
		r.c.read(int64(n), int64(n))
		// Surface the bytes now; a terminal EOF resurfaces on the next call.
		if err == io.EOF {
			err = nil
		}
	}
	return n, err
}

func (r *rawBlockReader) Close() error { return r.f.Close() }

// rawPageWriter places page i at byte offset i*pageSize, the historical
// backward-file layout, with the partial tail right-aligned in its page.
type rawPageWriter struct {
	f        vfs.File
	c        *counters
	pageSize int
}

func (w *rawPageWriter) WritePage(idx int, pages []byte) error {
	if _, err := w.f.WriteAt(pages, int64(idx)*int64(w.pageSize)); err != nil {
		return err
	}
	w.c.wrote(int64(len(pages)/w.pageSize), int64(len(pages)), int64(len(pages)))
	return nil
}

func (w *rawPageWriter) WriteTail(idx int, payload []byte) (int, error) {
	startPos := w.pageSize - len(payload)
	off := int64(idx)*int64(w.pageSize) + int64(startPos)
	if _, err := w.f.WriteAt(payload, off); err != nil {
		return 0, err
	}
	w.c.wrote(1, int64(len(payload)), int64(len(payload)))
	return startPos, nil
}

func (w *rawPageWriter) WriteHeader(hdr []byte) error {
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	w.c.wrote(1, int64(len(hdr)), int64(len(hdr)))
	return nil
}

func (w *rawPageWriter) Close() error { return w.f.Close() }

// rawPageReader reads the header at offset 0 and then streams bytes from
// the start position to the physical end of the page area.
type rawPageReader struct {
	f      vfs.File
	c      *counters
	off    int64
	end    int64
	seeked bool
}

func (r *rawPageReader) ReadHeader(p []byte) error {
	n, err := r.f.ReadAt(p, 0)
	if err != nil && err != io.EOF {
		return err
	}
	if n < len(p) {
		return fmt.Errorf("%w: short header (%d of %d bytes)", ErrCorrupt, n, len(p))
	}
	r.c.read(int64(len(p)), int64(len(p)))
	return nil
}

func (r *rawPageReader) Seek(startPage, startPos, pageSize, pages int) error {
	r.off = int64(startPage)*int64(pageSize) + int64(startPos)
	r.end = int64(pages) * int64(pageSize)
	r.seeked = true
	return nil
}

func (r *rawPageReader) Read(p []byte) (int, error) {
	if !r.seeked {
		return 0, fmt.Errorf("storage: paged read before Seek")
	}
	if r.off >= r.end {
		return 0, io.EOF
	}
	if remaining := r.end - r.off; int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := r.f.ReadAt(p, r.off)
	r.off += int64(n)
	if n > 0 {
		r.c.read(int64(n), int64(n))
		if err == io.EOF {
			// A short physical file (possible only for corrupt chains) still
			// surfaces its bytes; the caller falls through on the next call.
			err = nil
		}
	}
	return n, err
}

func (r *rawPageReader) Close() error { return r.f.Close() }
