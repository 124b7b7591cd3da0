package runio

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/storage"
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
func backwardFileName(base string, i int) string { return fmt.Sprintf("%s.%d", base, i) }

// BackwardWriter writes a stream of elements arriving in *descending* order
// so that each file reads ascending front-to-back. Encoded bytes fill a
// one-page buffer from its end; full pages are handed to the storage
// backend at decreasing page positions; when page 1 is reached a header is
// stamped on page 0 and the next chain file is started. With a
// variable-width codec an element's encoding may span pages and even files:
// the continuation bytes land at the tail of the next chain file, which is
// exactly where an ascending read (files in reverse creation order, each
// scanned forward) expects them. How pages become bytes on the file system
// — the historical in-place layout, or checksummed and compressed
// fixed-size slots — is the backend's business (see internal/storage).
type BackwardWriter[T any] struct {
	streamBase[T]
	st           storage.Backend
	pageSize     int
	pagesPerFile int

	cur         storage.PageWriter // the chain file being filled; nil between files
	page        []byte
	posInPage   int
	pageIdx     int
	fileRecords uint64

	scratch []byte
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
	if fixed := c.FixedSize(); fixed > 0 && pageSize%fixed != 0 {
		return nil, fmt.Errorf("runio: page size %d must be a multiple of the element size %d", pageSize, fixed)
	}
	if pageSize < headerSize {
		return nil, fmt.Errorf("runio: page size %d must hold a %d-byte header", pageSize, headerSize)
	}
	if pagesPerFile < 2 {
		return nil, fmt.Errorf("runio: pagesPerFile %d must be at least 2 (header + data)", pagesPerFile)
	}
	w := &BackwardWriter[T]{st: st, pageSize: pageSize, pagesPerFile: pagesPerFile, page: make([]byte, pageSize), posInPage: pageSize}
	w.streamBase = streamBase[T]{seg: Segment{Name: base, Backward: true}, c: c, less: less, layout: w}
	return w, nil
}

// Write appends r, which must not exceed the previous element.
func (w *BackwardWriter[T]) Write(r T) error {
	if err := w.admit(r); err != nil {
		return err
	}
	if w.cur == nil {
		if err := w.openNextFile(); err != nil {
			return err
		}
	}
	w.fileRecords++
	// Lay the encoding down back-to-front: its tail bytes go just below the
	// current position, continuing into lower pages (and, on rollover, the
	// next chain file) until the whole element is placed.
	pending := w.c.Append(w.scratch[:0], r)
	if w.summed {
		// The content checksum sums per-element CRCs, so it is the same
		// value an ascending re-read computes despite the descending write
		// order (see ContentSum).
		w.sum = ContentSum(w.sum, pending)
	}
	w.scratch = pending[:0]
	for len(pending) > 0 {
		if w.cur == nil {
			if err := w.openNextFile(); err != nil {
				return err
			}
		}
		k := len(pending)
		if k > w.posInPage {
			k = w.posInPage
		}
		copy(w.page[w.posInPage-k:w.posInPage], pending[len(pending)-k:])
		w.posInPage -= k
		pending = pending[:len(pending)-k]
		if w.posInPage == 0 {
			if err := w.flushPage(); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteBatch appends every element of src in order (descending). The byte
// layout is identical to element-at-a-time writes.
func (w *BackwardWriter[T]) WriteBatch(src []T) error {
	for _, r := range src {
		if err := w.Write(r); err != nil {
			return err
		}
	}
	return nil
}

func (w *BackwardWriter[T]) openNextFile() error {
	pw, err := w.st.CreatePaged(backwardFileName(w.seg.Name, w.seg.Files), w.pageSize, w.pagesPerFile)
	if err != nil {
		return err
	}
	w.cur = pw
	w.seg.Files++
	w.pageIdx = w.pagesPerFile - 1
	w.posInPage = w.pageSize
	w.fileRecords = 0
	return nil
}

// flushPage hands the full page buffer to the backend at the current page
// position and, when the file has no data pages left, finishes it: the next
// write opens the following chain file.
func (w *BackwardWriter[T]) flushPage() error {
	if err := w.cur.WritePage(w.pageIdx, w.page); err != nil {
		return err
	}
	w.posInPage = w.pageSize
	w.pageIdx--
	if w.pageIdx > 0 {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	return w.release()
}

// flush completes the current chain file, if one is open: the partial page
// still in the buffer, then the header.
func (w *BackwardWriter[T]) flush() error {
	if w.cur == nil {
		return nil
	}
	startPage := w.pageIdx + 1
	startPos := 0
	if w.posInPage != w.pageSize {
		// A partial page still sits in the buffer (only possible at Close):
		// store it as this file's lowest page. The backend reports where an
		// ascending read of that page must start (the raw layout
		// right-aligns the tail in place; framed slots store exactly the
		// payload and start at 0).
		sp, err := w.cur.WriteTail(w.pageIdx, w.page[w.posInPage:])
		if err != nil {
			return err
		}
		startPage, startPos = w.pageIdx, sp
	}
	hdr := make([]byte, headerSize)
	header{
		index:     uint32(w.seg.Files - 1),
		pages:     uint32(w.pagesPerFile),
		pageSize:  uint32(w.pageSize),
		startPage: uint32(startPage),
		startPos:  uint32(startPos),
		records:   w.fileRecords,
	}.encode(hdr)
	return w.cur.WriteHeader(hdr)
}

// release closes the current chain file, complete or not.
func (w *BackwardWriter[T]) release() error {
	if w.cur == nil {
		return nil
	}
	err := w.cur.Close()
	w.cur = nil
	return err
}

// Files returns the number of chain files created so far.
func (w *BackwardWriter[T]) Files() int { return w.seg.Files }
