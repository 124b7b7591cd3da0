// Package storage is the spill layer between runio and vfs: it decides how
// the page-sized buffers the run writers produce become bytes on a file
// system, checks them on the way back, and accounts for every byte moved
// either way. Where those bytes lie is the file system's business: every
// sort hands its backend a vfs.Arena, which keeps every spill file as
// extents of one physical file. So is watching and timing them: per-file
// trace spans, the simulated disk of internal/iosim, and the tests' counts
// and faults wrap the vfs.FS a backend is built over, not the backend. A
// backend lists no files; the arena it writes into does.
//
// A Backend offers two file shapes, matching runio's two on-disk layouts:
//
//   - Forward streams (Create/Open): a sequence of blocks appended and read
//     strictly in order, used for forward run files.
//
//   - Paged files (CreatePaged/OpenPaged): fixed-size pages written at
//     arbitrary — in practice tail-first decreasing — page indices plus a
//     small raw header region at the front, used for the Appendix A backward
//     chain format. Ascending reads stream page payloads forward from a
//     start page.
//
// There is one layout: the library's historical raw bytes, which the iosim
// disk model and every layout golden pin — blocks and pages land where the
// run writers put them, with nothing added. Its check is kept beside the
// file, in memory: every block written (a forward Append, a chain page, a
// chain tail or header) records its end offset, length and CRC-32C under
// the file's name, and a reader folds the bytes each read returns into the
// check of the block they belong to, comparing it once the read passes the
// block's end. Read windows need not line up with the blocks written. A
// block that reads back altered is an ErrChecksum naming the file and the
// block, when the merge reads it, never silently wrong output. The check
// lives as long as the backend: a file this backend did not write — one a
// durable sort adopts from an earlier process at Resume — is read
// unchecked, and the manifest's content sums (runio.ContentSum) cover it.
package storage

import (
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/vfs"
)

// Config selects a spill backend. There is one, so it has no fields; it
// stays for the callers that still pass one to New.
type Config struct{}

// ErrChecksum reports a block whose bytes failed their CRC-32C on read: the
// spilled data was corrupted at rest or in transit.
var ErrChecksum = errors.New("storage: block checksum mismatch")

// ErrCorrupt reports a spill file whose shape is wrong (it ends inside a
// block its writer stored, a chain header is short, a run segment ends
// early), which means the file was truncated or overwritten.
var ErrCorrupt = errors.New("storage: corrupt spill file")

// IOStats is a point-in-time snapshot of a backend's I/O accounting. Raw
// counts payload bytes as the run writers produced them, Stored the bytes
// moved to or from the file system; with one unframed layout the two are
// equal, and both stay for the callers that read either.
type IOStats struct {
	// BlocksWritten and BlocksRead count block (or page) transfers: a run
	// of pages stored by one call counts each of its pages.
	BlocksWritten int64
	// BlocksRead counts block (or page) reads.
	BlocksRead int64
	// RawBytesWritten is payload bytes handed to the backend.
	RawBytesWritten int64
	// StoredBytesWritten equals RawBytesWritten.
	StoredBytesWritten int64
	// RawBytesRead is payload bytes returned to readers.
	RawBytesRead int64
	// StoredBytesRead equals RawBytesRead.
	StoredBytesRead int64
	// VerifyFailures counts blocks whose checksum failed on read.
	VerifyFailures int64
}

// counters is the shared, goroutine-safe accumulator behind IOStats:
// parallel merge workers hit it concurrently.
type counters struct {
	blocksW, blocksR atomic.Int64
	bytesW, bytesR   atomic.Int64
	verifyFailures   atomic.Int64
}

// wrote accounts one write of n bytes in blocks blocks (or pages).
func (c *counters) wrote(blocks, n int64) {
	c.blocksW.Add(blocks)
	c.bytesW.Add(n)
}

// read accounts one read of n bytes.
func (c *counters) read(n int64) {
	c.blocksR.Add(1)
	c.bytesR.Add(n)
}

func (c *counters) snapshot() IOStats {
	w, r := c.bytesW.Load(), c.bytesR.Load()
	return IOStats{
		BlocksWritten:      c.blocksW.Load(),
		BlocksRead:         c.blocksR.Load(),
		RawBytesWritten:    w,
		StoredBytesWritten: w,
		RawBytesRead:       r,
		StoredBytesRead:    r,
		VerifyFailures:     c.verifyFailures.Load(),
	}
}

// BlockWriter receives the page-sized buffers of one forward spill stream,
// in order. Append must not retain p after returning.
type BlockWriter interface {
	// Append stores p as the stream's next block.
	Append(p []byte) error
	// Close finalises the stream.
	Close() error
}

// BlockReader streams the logical payload bytes of a forward spill stream
// back in write order. Read follows io.Reader semantics and never returns
// (0, nil) for a non-empty p.
type BlockReader interface {
	io.Reader
	// Close releases the stream.
	Close() error
}

// PageWriter stores the fixed-size pages of one backward chain file at
// caller-chosen (tail-first decreasing) page indices, plus a raw header
// region at the front of the file. Page index 0 is reserved for the header.
type PageWriter interface {
	// WritePage stores a run of whole pages at indices idx ≥ 1, idx+1, …:
	// one page, or a block of them, stored with one write. Each page counts
	// as a block written either way.
	WritePage(idx int, pages []byte) error
	// WriteTail stores the final, partial payload right-aligned in page
	// idx ≥ 1 and returns the in-page position an ascending reader must
	// start at.
	WriteTail(idx int, payload []byte) (startPos int, err error)
	// WriteHeader stores the raw chain-file header at the front.
	WriteHeader(hdr []byte) error
	// Close finalises the file.
	Close() error
}

// PageReader reads one backward chain file: the raw header first, then —
// after Seek positions it — the page payloads as one ascending byte stream.
// Read follows io.Reader semantics and never returns (0, nil) for a
// non-empty p.
type PageReader interface {
	// ReadHeader fills p from the raw header region at the front.
	ReadHeader(p []byte) error
	// Seek positions the payload stream at startPos bytes into page
	// startPage of a file with the given page size and page count; it must
	// be called exactly once, before the first Read.
	Seek(startPage, startPos, pageSize, pages int) error
	io.Reader
	// Close releases the file.
	Close() error
}

// Backend stores spill files. Implementations are safe for concurrent use
// across distinct files (parallel merge workers); a single file is written
// by one goroutine, closed, then read.
type Backend interface {
	// Create opens a forward spill stream for sequential block appends.
	Create(name string) (BlockWriter, error)
	// Open opens a forward spill stream for sequential reads.
	Open(name string) (BlockReader, error)
	// CreatePaged opens a backward chain file of `pages` fixed-size pages
	// for tail-first writes.
	CreatePaged(name string, pageSize, pages int) (PageWriter, error)
	// OpenPaged opens a backward chain file for header and payload reads.
	OpenPaged(name string) (PageReader, error)
	// Remove deletes the named spill file.
	Remove(name string) error
	// Stats snapshots the backend's I/O accounting.
	Stats() IOStats
	// String names the backend: "raw".
	String() string
}

// New returns NewRaw(fs): there is one backend, whatever cfg says.
func New(fs vfs.FS, cfg Config) (Backend, error) {
	return NewRaw(fs), nil
}

// NewRaw returns the backend over fs: the historical on-disk layout, byte
// for byte, checked block by block in memory. Over vfs.Discard, which keeps
// nothing to read back, it records no checks.
func NewRaw(fs vfs.FS) Backend {
	b := &rawBackend{fs: fs, c: &counters{}, pool: &Pool{}}
	if _, discard := fs.(vfs.Discard); !discard {
		b.sums = map[string][]check{}
	}
	return b
}
