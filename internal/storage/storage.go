// Package storage is the spill layer between runio and vfs: it decides how
// the page-sized buffers the run writers produce become bytes on a file
// system, and accounts for every byte moved either way. Where those bytes
// lie is the file system's business: every sort hands its backend a
// vfs.Arena, which keeps every spill file as extents of one physical file.
// So is watching and timing them: per-file trace spans, the simulated disk
// of internal/iosim, and the tests' counts and faults wrap the vfs.FS a
// backend is built over, not the backend. A backend lists no files; the
// arena it writes into does.
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
// Two framings implement the interface. The raw backend reproduces the
// library's historical on-disk layout byte for byte and only adds
// accounting; it is the default, and the layout every pre-storage test and
// the iosim disk model pin. The block backend wraps each page in a
// self-describing frame — magic, per-block codec, payload lengths and a
// CRC32 of the uncompressed payload — and optionally compresses payloads
// with the standard library's flate. A block is one file-system write,
// frame and payload together, and so is a run of chain pages; a read fills
// a window of the caller's block size with as many whole blocks as it
// holds, so a window of less than two blocks reads more often than the raw
// layout's buffer of the same size, which is why raw stays the default
// (DESIGN §10). Callers that leave FrameHeadroom bytes in front of a
// payload (AppendBlock) and take blocks on loan (BlockLender) move it
// without a copy on either side. Corruption of a spilled block then
// surfaces as ErrChecksum (or ErrCorrupt for a damaged frame) when the
// merge reads it back, never as silently wrong output.
package storage

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/vfs"
)

// Compression names a block payload codec.
type Compression string

// The supported spill framings. Raw is the historical unframed layout;
// every other value selects block framing with per-block CRC32 checksums
// and the named payload codec.
const (
	// Raw is the historical pass-through layout: no frames, no checksums,
	// byte-identical to the pre-storage library.
	Raw Compression = "raw"
	// None frames and checksums blocks but stores payloads uncompressed.
	None Compression = "none"
	// Flate compresses block payloads with DEFLATE (stdlib compress/flate,
	// BestSpeed — spill bandwidth matters more than ratio).
	Flate Compression = "flate"
)

// Compressions lists the valid Compression names in presentation order.
func Compressions() []string {
	return []string{string(Raw), string(None), string(Flate)}
}

// ParseCompression resolves a compression name. The empty string means Raw,
// preserving the zero Config's historical behaviour.
func ParseCompression(s string) (Compression, error) {
	switch strings.ToLower(s) {
	case "", "raw":
		return Raw, nil
	case "none":
		return None, nil
	case "flate", "deflate":
		return Flate, nil
	}
	return "", fmt.Errorf("storage: unknown compression %q (want %s)", s, strings.Join(Compressions(), ", "))
}

// Config selects a spill backend.
type Config struct {
	// Compression selects the spill framing: "" or "raw" for the historical
	// unframed layout, or "none", "flate" for checksummed block framing
	// with the named payload codec.
	Compression string
}

// StoredBytes returns the most bytes a block of payload bytes takes on the
// file system under cfg: the payload alone in the raw layout, and the
// payload behind its frame under a framing one (a flate block stores no
// more than that).
func (cfg Config) StoredBytes(payload int) int {
	if comp, _ := ParseCompression(cfg.Compression); comp == Raw {
		return payload
	}
	return frameSize + payload
}

// ErrChecksum reports a block whose payload failed CRC verification: the
// spilled data was corrupted at rest or in transit.
var ErrChecksum = errors.New("storage: block checksum mismatch")

// ErrCorrupt reports a damaged block frame (bad magic or nonsensical
// lengths), which means the file was truncated or overwritten.
var ErrCorrupt = errors.New("storage: corrupt block frame")

// IOStats is a point-in-time snapshot of a backend's I/O accounting. Raw
// counts payload bytes as the run writers produced them; Stored counts the
// physical bytes actually moved to or from the file system, including block
// frames and after compression — the quantity an I/O-bound sort pays for.
type IOStats struct {
	// BlocksWritten and BlocksRead count block (or page) transfers: a run
	// of pages stored by one call counts each of its pages.
	BlocksWritten int64
	// BlocksRead counts block (or page) reads.
	BlocksRead int64
	// RawBytesWritten is payload bytes handed to the backend.
	RawBytesWritten int64
	// StoredBytesWritten is physical bytes written, after framing and
	// compression. Equal to RawBytesWritten on the raw backend.
	StoredBytesWritten int64
	// RawBytesRead is payload bytes returned to readers.
	RawBytesRead int64
	// StoredBytesRead is physical bytes read, before decompression: all the
	// file system returned, the unused room of a framed chain file's fixed
	// page slots included.
	StoredBytesRead int64
	// VerifyFailures counts blocks whose checksum or frame validation
	// failed on read.
	VerifyFailures int64
}

// CompressionRatio returns RawBytesWritten / StoredBytesWritten — how many
// logical bytes each stored byte carries (1 on the raw backend, >1 when
// compression is winning). It returns 0 before anything was written.
func (s IOStats) CompressionRatio() float64 {
	if s.StoredBytesWritten == 0 {
		return 0
	}
	return float64(s.RawBytesWritten) / float64(s.StoredBytesWritten)
}

// counters is the shared, goroutine-safe accumulator behind IOStats:
// parallel merge workers hit it concurrently.
type counters struct {
	blocksW, blocksR atomic.Int64
	rawW, storedW    atomic.Int64
	rawR, storedR    atomic.Int64
	verifyFailures   atomic.Int64
}

// wrote accounts one write of blocks blocks (or pages).
func (c *counters) wrote(blocks, raw, stored int64) {
	c.blocksW.Add(blocks)
	c.rawW.Add(raw)
	c.storedW.Add(stored)
}

func (c *counters) read(raw, stored int64) {
	c.blocksR.Add(1)
	c.rawR.Add(raw)
	c.storedR.Add(stored)
}

func (c *counters) snapshot() IOStats {
	return IOStats{
		BlocksWritten:      c.blocksW.Load(),
		BlocksRead:         c.blocksR.Load(),
		RawBytesWritten:    c.rawW.Load(),
		StoredBytesWritten: c.storedW.Load(),
		RawBytesRead:       c.rawR.Load(),
		StoredBytesRead:    c.storedR.Load(),
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

// FrameHeadroom is the room an InPlaceAppender is given in front of a
// payload: a cache line, of which a framing backend uses the end for its
// frame, so that a payload at the start of an aligned block stays aligned
// for the encoder that fills it and the checksum that reads it.
const FrameHeadroom = 64

// InPlaceAppender is the optional zero-copy face of a BlockWriter, found by
// type assertion. AppendBlock is how callers use it.
type InPlaceAppender interface {
	// AppendInPlace stores block[FrameHeadroom:] as the stream's next
	// block. The FrameHeadroom bytes in front of it are the writer's to
	// scribble on: the frame goes at their end. It must not retain block
	// after returning.
	AppendInPlace(block []byte) error
}

// AppendBlock stores block[FrameHeadroom:] as w's next block — in place
// when w frames blocks, so frame and payload reach the file system in one
// write, and by Append when it has no frame to put in the headroom.
func AppendBlock(w BlockWriter, block []byte) error {
	if ip, ok := w.(InPlaceAppender); ok {
		return ip.AppendInPlace(block)
	}
	return w.Append(block[FrameHeadroom:])
}

// BlockLender is the optional zero-copy face of a BlockReader, found by
// type assertion: a reader that holds each verified block in a buffer of
// its own lends it out instead of copying it into the caller's. Read and
// NextBlock may be mixed; both move the same position.
type BlockLender interface {
	// NextBlock returns the rest of the current block, or the whole of the
	// next one, valid until the next call on the reader, and io.EOF at the
	// end of the stream. sizeHint is the block size the caller expects,
	// which is what the reader's first file read is sized for.
	NextBlock(sizeHint int) ([]byte, error)
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
	// WriteTail stores the final, partial payload at index idx ≥ 1 and
	// returns the in-page position an ascending reader must start at (the
	// raw layout right-aligns the tail inside its page; framed layouts
	// store exactly the payload and return 0).
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
	// String describes the backend configuration, e.g. "block(flate)".
	String() string
}

// New builds the Backend a Config describes over fs: its compression
// framing.
func New(fs vfs.FS, cfg Config) (Backend, error) {
	comp, err := ParseCompression(cfg.Compression)
	if err != nil {
		return nil, err
	}
	if comp == Raw {
		return NewRaw(fs), nil
	}
	return &blockBackend{fs: fs, comp: comp, c: &counters{}, pool: &Pool{}}, nil
}

// NewRaw returns the accounting-only pass-through backend over fs: the
// historical on-disk layout, byte for byte. It is what every call site that
// predates the storage layer uses.
func NewRaw(fs vfs.FS) Backend {
	return &rawBackend{fs: fs, c: &counters{}, pool: &Pool{}}
}
