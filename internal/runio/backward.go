package runio

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/stream"
)

// backwardMagic identifies a backward-format file (Appendix A).
const backwardMagic = 0x32575253 // "2WRS"

// headerSize is the number of meaningful bytes in the header page.
const headerSize = 32

// header is the metadata stored in page 0 of every backward-format file.
type header struct {
	index     uint32 // position of this file in the chain (creation order)
	pages     uint32 // total pages including the header page
	pageSize  uint32
	startPage uint32 // first page holding data ("page two ... for all files except possibly the last one")
	startPos  uint32 // byte offset of the first data byte within startPage
	records   uint64 // elements whose write began in this file
}

func (h header) encode(buf []byte) {
	binary.LittleEndian.PutUint32(buf[0:4], backwardMagic)
	binary.LittleEndian.PutUint32(buf[4:8], h.index)
	binary.LittleEndian.PutUint32(buf[8:12], h.pages)
	binary.LittleEndian.PutUint32(buf[12:16], h.pageSize)
	binary.LittleEndian.PutUint32(buf[16:20], h.startPage)
	binary.LittleEndian.PutUint32(buf[20:24], h.startPos)
	binary.LittleEndian.PutUint64(buf[24:32], h.records)
}

func decodeHeader(buf []byte) (header, error) {
	if binary.LittleEndian.Uint32(buf[0:4]) != backwardMagic {
		return header{}, fmt.Errorf("runio: bad backward file magic %#x", binary.LittleEndian.Uint32(buf[0:4]))
	}
	return header{
		index:     binary.LittleEndian.Uint32(buf[4:8]),
		pages:     binary.LittleEndian.Uint32(buf[8:12]),
		pageSize:  binary.LittleEndian.Uint32(buf[12:16]),
		startPage: binary.LittleEndian.Uint32(buf[16:20]),
		startPos:  binary.LittleEndian.Uint32(buf[20:24]),
		records:   binary.LittleEndian.Uint64(buf[24:32]),
	}, nil
}

// backwardFileName names the i-th file of the chain, matching the thesis'
// "same name followed by a different number" scheme.
func backwardFileName(base string, i int) string { return base + "." + strconv.Itoa(i) }

// chainFile is one open file of a backward chain: given runs of whole pages
// top down, then finished and closed.
type chainFile struct {
	w   storage.PageWriter
	top int // the highest data page not stored yet
	// hdr is the file's header: the writer counts its records, finish fills
	// in where the payload starts and encodes it into head.
	hdr  header
	head [headerSize]byte
}

// writePages stores a run of whole pages just below those already stored.
func (f *chainFile) writePages(pages []byte) error {
	f.top -= len(pages) / int(f.hdr.pageSize)
	return f.w.WritePage(f.top+1, pages)
}

// finish completes the file: the payload left over — whole pages, then a
// partial lowest one — and the header, which says where an ascending read
// starts. In a partial page that is where the backend says: it
// right-aligns the payload.
func (f *chainFile) finish(payload []byte) error {
	partial := len(payload) % int(f.hdr.pageSize)
	if len(payload) > partial {
		if err := f.writePages(payload[partial:]); err != nil {
			return err
		}
	}
	f.hdr.startPage, f.hdr.startPos = uint32(f.top+1), 0
	if partial > 0 {
		sp, err := f.w.WriteTail(f.top, payload[:partial])
		if err != nil {
			return err
		}
		f.hdr.startPage, f.hdr.startPos = uint32(f.top), uint32(sp)
	}
	f.hdr.encode(f.head[:])
	return f.w.WriteHeader(f.head[:])
}

// BackwardWriter writes a stream of elements arriving in *descending* order
// so that each file reads ascending front-to-back. Encoded bytes fill a
// pooled block of whole pages — sized as a Writer's — from its end, and each
// full block is stored with one call over its page range, at decreasing
// positions; when page 1 is reached a header is stamped on page 0 and the
// next element starts the next chain file. A variable-width encoding may
// span pages and even files: the continuation bytes land at the tail of the
// next chain file, which is exactly where an ascending read (files in
// reverse creation order, each scanned forward) expects them. Like a
// Writer it performs its file operations on its caller's goroutine, and the
// bytes stored do not depend on the block size.
type BackwardWriter[T any] struct {
	streamBase[T]
	st         storage.Backend
	pool       *storage.Pool
	fixed      int // c.FixedSize()
	blockPages int
	file       header // what every file's header starts as: pages and page size

	f    *chainFile // the chain file being filled; nil between files
	left int        // its data pages not given to a block yet
	// blk[pos:end] is what the block being filled holds, the end of its
	// highest page last; it is full at pos 0.
	blk      []byte
	pos, end int
	// err is a failure to store a full block: the writer cannot go on.
	err error

	scratch []byte // the encoding of an element placed without a bulk codec
	rev     []T    // a quarter page of a batch, ascending, for the bulk kernel (one per run's chain)
}

// NewBackwardWriter returns a writer for a descending stream stored under
// the given base name. pageSize and pagesPerFile of 0 mean the defaults;
// pagesPerFile must leave room for the header page plus one data page. For
// fixed-width codecs the page size must hold a whole number of elements,
// preserving the historical non-spanning layout.
func NewBackwardWriter[T any](st storage.Backend, base string, pageSize, pagesPerFile int, c codec.Codec[T], less func(a, b T) bool) (*BackwardWriter[T], error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pagesPerFile <= 0 {
		pagesPerFile = DefaultPagesPerFile
	}
	fixed := c.FixedSize()
	if fixed > 0 && pageSize%fixed != 0 {
		return nil, fmt.Errorf("runio: page size %d must be a multiple of the element size %d", pageSize, fixed)
	}
	if pageSize < headerSize {
		return nil, fmt.Errorf("runio: page size %d must hold a %d-byte header", pageSize, headerSize)
	}
	if pagesPerFile < 2 {
		return nil, fmt.Errorf("runio: pagesPerFile %d must be at least 2 (header + data)", pagesPerFile)
	}
	w := &BackwardWriter[T]{st: st, pool: storage.PoolOf(st), fixed: fixed, file: header{pages: uint32(pagesPerFile), pageSize: uint32(pageSize)}}
	w.blockPages = min(max(BlockBytes(w.pool.Budget())/pageSize, 1), pagesPerFile-1)
	w.streamBase = newStreamBase(Segment{Name: base, Backward: true}, c, less, w)
	return w, nil
}

// place lays an element's encoding down back-to-front: its tail bytes go
// just below the current position, continuing into lower pages (and, on
// rollover, the next chain file) until the whole element is placed. A
// fixed-width element fits the block whole, as a page holds whole elements.
func (w *BackwardWriter[T]) place(r T) error {
	pending := w.c.Append(w.scratch[:0], r)
	if w.summed {
		w.sum = ContentSum(w.sum, pending)
	}
	w.scratch = pending[:0]
	for {
		k := min(len(pending), w.pos)
		copy(w.blk[w.pos-k:w.pos], pending[len(pending)-k:])
		w.pos -= k
		pending = pending[:len(pending)-k]
		if w.pos > 0 {
			return nil
		}
		if err := w.full(); err != nil || len(pending) == 0 {
			return err
		}
		if err := w.ready(); err != nil {
			return err
		}
	}
}

// WriteBatch appends every element of src in order (descending). With a
// bulk codec each turn of its loop takes the elements that still fit the
// block, at most a quarter page of them, and encodes them ascending in one
// call just below what the block holds; other codecs place one element a
// turn. The bytes stored do not depend on how src was cut into batches.
func (w *BackwardWriter[T]) WriteBatch(src []T) error {
	if w.closed {
		return stream.ErrClosed
	}
	for len(src) > 0 {
		if err := w.ready(); err != nil {
			return err
		}
		n := 1
		if w.bulk != nil {
			if w.rev == nil {
				w.rev = make([]T, max(int(w.file.pageSize)/w.fixed/4, 1))
			}
			n = min(len(src), w.pos/w.fixed, len(w.rev))
		}
		if err := w.admitAll(src[:n]); err != nil {
			return err
		}
		w.f.hdr.records += uint64(n)
		if w.bulk == nil {
			if err := w.place(src[0]); err != nil {
				return err
			}
			src = src[1:]
			continue
		}
		for i, r := range src[:n] {
			w.rev[n-1-i] = r
		}
		at := w.pos - n*w.fixed
		w.bulk.AppendAll(w.blk[at:at], w.rev[:n])
		for ; w.summed && at < w.pos; at += w.fixed {
			w.sum = ContentSum(w.sum, w.blk[at:at+w.fixed])
		}
		w.pos -= n * w.fixed
		if src = src[n:]; w.pos == 0 {
			if err := w.full(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ready makes sure the block has room for the next byte, starting the next
// chain file when none is open; once storing a block has failed it fails.
func (w *BackwardWriter[T]) ready() error {
	if w.err != nil || w.f != nil {
		return w.err
	}
	w.left = int(w.file.pages) - 1
	pw, err := w.st.CreatePaged(backwardFileName(w.seg.Name, w.seg.Files), int(w.file.pageSize), int(w.file.pages))
	if err != nil {
		return err
	}
	w.f = &chainFile{w: pw, top: w.left, hdr: w.file}
	w.f.hdr.index = uint32(w.seg.Files)
	w.seg.Files++
	w.nextBlock()
	return nil
}

// nextBlock starts the block of the current file's next blockPages data
// pages, or of what is left of them at the file's head.
func (w *BackwardWriter[T]) nextBlock() {
	if w.blk == nil {
		w.blk = w.pool.Get(w.blockPages * int(w.file.pageSize))
	}
	n := min(w.blockPages, w.left)
	w.left -= n
	w.pos, w.end = n*int(w.file.pageSize), n*int(w.file.pageSize)
}

// full stores the block just filled and moves on to the file's next one —
// or, when it held the file's head, completes and closes the file, and the
// next byte starts the following chain file.
func (w *BackwardWriter[T]) full() error {
	if w.err = w.f.writePages(w.blk[:w.end]); w.err != nil {
		return w.err
	}
	if w.end = 0; w.left > 0 {
		w.nextBlock()
		return nil
	}
	if w.err = w.flush(); w.err != nil {
		return w.err
	}
	return w.release()
}

// flush completes the current chain file, if one is open: what the block
// holds, then the header.
func (w *BackwardWriter[T]) flush() error {
	if w.f == nil || w.err != nil {
		return w.err
	}
	payload := w.blk[w.pos:w.end]
	w.pos, w.end = 0, 0
	return w.f.finish(payload)
}

// release returns the block to the pool and closes the current chain file,
// complete or not.
func (w *BackwardWriter[T]) release() error {
	w.pool.Put(w.blk)
	w.blk = nil
	if w.f == nil {
		return nil
	}
	err := w.f.w.Close()
	w.f = nil
	return err
}

// Files returns the number of chain files created so far.
func (w *BackwardWriter[T]) Files() int { return w.seg.Files }
