package storage

import (
	"cmp"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"repro/internal/vfs"
)

// castagnoli selects CRC-32C, which the hardware computes at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// check is one block as its writer stored it: where it ends in the file, how
// many bytes it holds and their CRC-32C.
type check struct {
	end int64
	n   uint32
	sum uint32
}

func (c check) start() int64 { return c.end - int64(c.n) }

// rawBackend stores blocks and pages exactly where the pre-storage library
// put them, so the on-disk layout is byte-identical to it, and keeps each
// file's block checks in memory beside it.
type rawBackend struct {
	fs   vfs.FS
	c    *counters
	pool *Pool
	mu   sync.Mutex
	sums map[string][]check // each file's checks in file order; nil keeps none
	// spare holds closed writers' scratch slices (summer) for the next.
	spare [][]check
}

func (b *rawBackend) blockPool() *Pool { return b.pool }

func (b *rawBackend) String() string { return "raw" }

func (b *rawBackend) Stats() IOStats { return b.c.snapshot() }

func (b *rawBackend) Remove(name string) error {
	b.drop(name)
	return b.fs.Remove(name)
}

// keep makes sums, sorted into file order, the named file's checks.
func (b *rawBackend) keep(name string, sums []check) {
	slices.SortFunc(sums, func(x, y check) int { return cmp.Compare(x.end, y.end) })
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sums[name] = sums
}

// drop forgets the named file's checks.
func (b *rawBackend) drop(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.sums, name)
}

// checker returns a reader's checker of the named file: one that checks
// nothing when the backend keeps no checks of it.
func (b *rawBackend) checker(name string) checker {
	b.mu.Lock()
	defer b.mu.Unlock()
	return checker{name: name, sums: b.sums[name], c: b.c}
}

// create opens a file for writing, dropping the checks of any file it
// replaces.
func (b *rawBackend) create(name string) (vfs.File, summer, error) {
	b.drop(name)
	f, err := b.fs.Create(name)
	return f, summer{b: b, name: name, on: b.sums != nil}, err
}

// scratch returns an empty slice for a writer to collect checks in, one a
// closed writer gave back (recycle) if there is one.
func (b *rawBackend) scratch() []check {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.spare)
	if n == 0 {
		return nil
	}
	s := b.spare[n-1]
	b.spare = b.spare[:n-1]
	return s[:0]
}

func (b *rawBackend) recycle(s []check) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spare = append(b.spare, s)
}

func (b *rawBackend) Create(name string) (BlockWriter, error) {
	f, s, err := b.create(name)
	if err != nil {
		return nil, err
	}
	return &rawBlockWriter{f: f, c: b.c, s: s}, nil
}

func (b *rawBackend) Open(name string) (BlockReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &rawBlockReader{f: f, c: b.c, v: b.checker(name)}, nil
}

func (b *rawBackend) CreatePaged(name string, pageSize, pages int) (PageWriter, error) {
	f, s, err := b.create(name)
	if err != nil {
		return nil, err
	}
	return &rawPageWriter{f: f, c: b.c, s: s, pageSize: pageSize}, nil
}

func (b *rawBackend) OpenPaged(name string) (PageReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &rawPageReader{f: f, c: b.c, v: b.checker(name)}, nil
}

// summer collects a writer's block checks and hands them to the backend
// when the writer closes, which is when the file may be read. A file of a
// few blocks keeps its checks in the writer's own array; a longer one
// collects them in a scratch slice that goes back to the backend for the
// next writer, and keeps an exact copy. Either way a file costs at most one
// allocation for its checks once the scratch slices have grown.
type summer struct {
	b      *rawBackend
	name   string
	on     bool
	sums   []check
	inline [8]check
}

// add records the block p, stored to end at file offset end.
func (s *summer) add(p []byte, end int64) {
	if !s.on || len(p) == 0 {
		return
	}
	switch {
	case s.sums == nil:
		s.sums = s.inline[:0]
	case len(s.sums) == len(s.inline) && &s.sums[0] == &s.inline[0]:
		// The writer's own array is full.
		s.sums = append(s.b.scratch(), s.sums...)
	}
	s.sums = append(s.sums, check{end: end, n: uint32(len(p)), sum: crc32.Checksum(p, castagnoli)})
}

// close hands the checks to the backend, once.
func (s *summer) close() {
	if !s.on {
		return
	}
	s.on = false
	sums := s.sums
	if len(sums) > len(s.inline) {
		sums = slices.Clone(sums)
		s.b.recycle(s.sums)
	}
	s.b.keep(s.name, sums)
}

// checker checks what one reader reads of a file against the checks its
// writer recorded: the bytes of each read are folded into the CRC of the
// block they belong to (crc32.Update carries it across reads), which is
// compared once the reads pass the block's end.
type checker struct {
	name string
	sums []check // the file's blocks in file order
	i    int     // the next block to pass
	sum  uint32  // sums[i]'s CRC over the bytes read of it so far
	c    *counters
}

// from readies the checker for reads starting at file offset off: blocks
// that start before it are not checked.
func (v *checker) from(off int64) {
	for v.i < len(v.sums) && v.sums[v.i].start() < off {
		v.i++
	}
	v.sum = 0
}

// fold checks p, the file's bytes from offset off on. Reads must come in
// file order, each where the last one ended.
func (v *checker) fold(p []byte, off int64) error {
	for len(p) > 0 && v.i < len(v.sums) {
		b := v.sums[v.i]
		if gap := b.start() - off; gap > 0 {
			// Bytes no block covers: a chain file's room in front of its
			// tail.
			if gap >= int64(len(p)) {
				return nil
			}
			p, off = p[gap:], off+gap
		}
		k := min(int64(len(p)), b.end-off)
		v.sum = crc32.Update(v.sum, castagnoli, p[:k])
		p, off = p[k:], off+k
		if off < b.end {
			return nil
		}
		if v.sum != b.sum {
			v.c.verifyFailures.Add(1)
			return fmt.Errorf("%w: %s block %d (bytes %d to %d) reads crc %#08x, written %#08x",
				ErrChecksum, v.name, v.i, b.start(), b.end, v.sum, b.sum)
		}
		v.i, v.sum = v.i+1, 0
	}
	return nil
}

// ended reports a file that ended at off inside a block its writer stored.
func (v *checker) ended(off int64) error {
	if v.i == len(v.sums) {
		return nil
	}
	v.c.verifyFailures.Add(1)
	return fmt.Errorf("%w: %s ends at byte %d, inside block %d (bytes %d to %d)",
		ErrCorrupt, v.name, off, v.i, v.sums[v.i].start(), v.sums[v.i].end)
}

// rawBlockWriter appends blocks as a plain byte concatenation.
type rawBlockWriter struct {
	f   vfs.File
	c   *counters
	s   summer
	off int64
}

func (w *rawBlockWriter) Append(p []byte) error {
	if _, err := w.f.WriteAt(p, w.off); err != nil {
		return err
	}
	w.off += int64(len(p))
	w.s.add(p, w.off)
	w.c.wrote(1, int64(len(p)))
	return nil
}

func (w *rawBlockWriter) Close() error {
	w.s.close()
	return w.f.Close()
}

// rawBlockReader streams a plain file sequentially.
type rawBlockReader struct {
	f   vfs.File
	c   *counters
	v   checker
	off int64
}

func (r *rawBlockReader) Read(p []byte) (int, error) {
	n, err := r.f.ReadAt(p, r.off)
	if n > 0 {
		if ferr := r.v.fold(p[:n], r.off); ferr != nil {
			return 0, ferr
		}
		r.off += int64(n)
		r.c.read(int64(n))
		// Surface the bytes now; a terminal EOF resurfaces on the next call.
		if err == io.EOF {
			err = nil
		}
	} else if err == io.EOF {
		if ferr := r.v.ended(r.off); ferr != nil {
			return 0, ferr
		}
	}
	return n, err
}

func (r *rawBlockReader) Close() error { return r.f.Close() }

// rawPageWriter places page i at byte offset i*pageSize, the historical
// backward-file layout, with the partial tail right-aligned in its page.
// Each page, the tail and the header are a block to the checks.
type rawPageWriter struct {
	f        vfs.File
	c        *counters
	s        summer
	pageSize int
}

func (w *rawPageWriter) WritePage(idx int, pages []byte) error {
	off := int64(idx) * int64(w.pageSize)
	if _, err := w.f.WriteAt(pages, off); err != nil {
		return err
	}
	for rest := pages; len(rest) > 0; {
		n := min(len(rest), w.pageSize)
		off += int64(n)
		w.s.add(rest[:n], off)
		rest = rest[n:]
	}
	w.c.wrote(int64(len(pages)/w.pageSize), int64(len(pages)))
	return nil
}

func (w *rawPageWriter) WriteTail(idx int, payload []byte) (int, error) {
	startPos := w.pageSize - len(payload)
	end := int64(idx+1) * int64(w.pageSize)
	if _, err := w.f.WriteAt(payload, end-int64(len(payload))); err != nil {
		return 0, err
	}
	w.s.add(payload, end)
	w.c.wrote(1, int64(len(payload)))
	return startPos, nil
}

func (w *rawPageWriter) WriteHeader(hdr []byte) error {
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	w.s.add(hdr, int64(len(hdr)))
	w.c.wrote(1, int64(len(hdr)))
	return nil
}

func (w *rawPageWriter) Close() error {
	w.s.close()
	return w.f.Close()
}

// rawPageReader reads the header at offset 0 and then streams bytes from
// the start position to the physical end of the page area.
type rawPageReader struct {
	f      vfs.File
	c      *counters
	v      checker
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
	if err := r.v.fold(p, 0); err != nil {
		return err
	}
	r.c.read(int64(len(p)))
	return nil
}

func (r *rawPageReader) Seek(startPage, startPos, pageSize, pages int) error {
	r.off = int64(startPage)*int64(pageSize) + int64(startPos)
	r.end = int64(pages) * int64(pageSize)
	r.v.from(r.off)
	r.seeked = true
	return nil
}

func (r *rawPageReader) Read(p []byte) (int, error) {
	if !r.seeked {
		return 0, fmt.Errorf("storage: paged read before Seek")
	}
	if r.off >= r.end {
		if err := r.v.ended(r.off); err != nil {
			return 0, err
		}
		return 0, io.EOF
	}
	if remaining := r.end - r.off; int64(len(p)) > remaining {
		p = p[:remaining]
	}
	n, err := r.f.ReadAt(p, r.off)
	if n > 0 {
		if ferr := r.v.fold(p[:n], r.off); ferr != nil {
			return 0, ferr
		}
		r.off += int64(n)
		r.c.read(int64(n))
		if err == io.EOF {
			// A short physical file (possible only for corrupt chains) still
			// surfaces its bytes; the caller falls through on the next call.
			err = nil
		}
	} else if err == io.EOF {
		if ferr := r.v.ended(r.off); ferr != nil {
			return 0, ferr
		}
	}
	return n, err
}

func (r *rawPageReader) Close() error { return r.f.Close() }
