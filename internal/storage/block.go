package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/vfs"
)

// blockMagic identifies a block frame ("2WSB": two-way sort block).
const blockMagic = 0x42535732

// frameSize is the fixed length of a block frame header:
//
//	magic   uint32  frame marker
//	codec   uint8   payload codec of this block (stored, flate)
//	_       [3]byte reserved, zero
//	rawLen  uint32  payload length before compression
//	compLen uint32  payload length as stored (== rawLen for stored blocks)
//	crc32   uint32  IEEE CRC of the *uncompressed* payload
const frameSize = 20

// framePad is where a frame starts in FrameHeadroom spare bytes: it takes
// the last frameSize of them, directly in front of the payload.
const framePad = FrameHeadroom - frameSize

// Per-block payload codec ids. A compressing backend falls back to
// codecStored per block when compression would not shrink the payload, so
// compLen never exceeds rawLen and incompressible data costs only the frame.
const (
	codecStored = 0
	codecFlate  = 1
)

// maxBlockLen bounds the payload lengths a frame may claim, so a corrupt
// frame cannot drive a giant allocation.
const maxBlockLen = 1 << 30

// frame is the decoded form of a block frame header.
type frame struct {
	codec   byte
	rawLen  int
	compLen int
	crc     uint32
}

func encodeFrame(dst []byte, f frame) {
	binary.LittleEndian.PutUint32(dst[0:4], blockMagic)
	dst[4] = f.codec
	dst[5], dst[6], dst[7] = 0, 0, 0
	binary.LittleEndian.PutUint32(dst[8:12], uint32(f.rawLen))
	binary.LittleEndian.PutUint32(dst[12:16], uint32(f.compLen))
	binary.LittleEndian.PutUint32(dst[16:20], f.crc)
}

func decodeFrame(src []byte) (frame, error) {
	if m := binary.LittleEndian.Uint32(src[0:4]); m != blockMagic {
		return frame{}, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	f := frame{
		codec:   src[4],
		rawLen:  int(binary.LittleEndian.Uint32(src[8:12])),
		compLen: int(binary.LittleEndian.Uint32(src[12:16])),
		crc:     binary.LittleEndian.Uint32(src[16:20]),
	}
	if f.codec > codecFlate {
		return frame{}, fmt.Errorf("%w: unknown payload codec %d", ErrCorrupt, f.codec)
	}
	if f.rawLen < 0 || f.rawLen > maxBlockLen || f.compLen < 0 || f.compLen > f.rawLen {
		return frame{}, fmt.Errorf("%w: implausible lengths raw=%d comp=%d", ErrCorrupt, f.rawLen, f.compLen)
	}
	if f.codec == codecStored && f.compLen != f.rawLen {
		return frame{}, fmt.Errorf("%w: stored block with comp=%d != raw=%d", ErrCorrupt, f.compLen, f.rawLen)
	}
	return f, nil
}

// compressor turns payloads into stored blocks — frame and payload in one
// contiguous buffer, so a block is one write — reusing one flate
// encoder and its buffers across the blocks of a single writer.
type compressor struct {
	comp  Compression
	pool  *Pool
	buf   bytes.Buffer // frameSize spare bytes, then the compressed payload
	plain []byte       // FrameHeadroom spare bytes, then a payload that came without them
	fw    *flate.Writer
}

// compress encodes p per the backend's compression behind frameSize spare
// bytes. It returns codecStored and nil when p is to be stored as it is:
// no compression configured, or it would not shrink the payload. The
// returned slice is only valid until the next call.
func (c *compressor) compress(p []byte) (byte, []byte, error) {
	if c.comp == None {
		return codecStored, nil, nil
	}
	c.buf.Reset()
	var spare [frameSize]byte
	c.buf.Write(spare[:])
	if c.fw == nil {
		var err error
		if c.fw, err = flate.NewWriter(&c.buf, flate.BestSpeed); err != nil {
			return 0, nil, err
		}
	} else {
		c.fw.Reset(&c.buf)
	}
	if _, err := c.fw.Write(p); err != nil {
		return 0, nil, err
	}
	if err := c.fw.Close(); err != nil {
		return 0, nil, err
	}
	if c.buf.Len()-frameSize >= len(p) {
		return codecStored, nil, nil
	}
	return codecFlate, c.buf.Bytes(), nil
}

// framed returns what to store for the payload p: its frame and the stored
// payload behind it, contiguous. block, when non-nil, is p with frameSize
// spare bytes in front of it (the end of an InPlaceAppender's headroom), and
// a payload stored as it is gets its frame stamped there; without it the
// payload is copied behind a frame in the compressor's own block. The
// result is only valid until the next call.
func (c *compressor) framed(p, block []byte) ([]byte, error) {
	codec, out, err := c.compress(p)
	if err != nil {
		return nil, err
	}
	if out == nil {
		if block == nil {
			if cap(c.plain) < FrameHeadroom+len(p) {
				c.pool.Put(c.plain)
				c.plain = c.pool.Get(FrameHeadroom + len(p))
			}
			block = c.plain[framePad : FrameHeadroom+len(p)]
			copy(block[frameSize:], p)
		}
		out = block
	}
	encodeFrame(out, frame{codec: codec, rawLen: len(p), compLen: len(out) - frameSize, crc: crc32.ChecksumIEEE(p)})
	return out, nil
}

// release returns the compressor's block to the pool when its writer closes.
func (c *compressor) release() {
	c.pool.Put(c.plain)
	c.plain = nil
}

// decompressor inflates block payloads, reusing the decoder and the output
// buffer across the blocks of a single reader.
type decompressor struct {
	fr  io.ReadCloser
	out []byte
}

// decompress returns the raw payload of a block, valid until the next call.
func (d *decompressor) decompress(f frame, comp []byte) ([]byte, error) {
	if f.codec == codecStored {
		return comp, nil
	}
	if cap(d.out) < f.rawLen {
		d.out = make([]byte, f.rawLen)
	}
	d.out = d.out[:f.rawLen]
	if d.fr == nil {
		d.fr = flate.NewReader(bytes.NewReader(comp)).(io.ReadCloser)
	} else if err := d.fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(d.fr, d.out); err != nil {
		return nil, fmt.Errorf("%w: payload inflates short: %v", ErrCorrupt, err)
	}
	return d.out, nil
}

// blockBackend frames every page in a self-describing, CRC32-checksummed
// block, optionally compressed. Forward streams are frame concatenations;
// paged files give every page a fixed-size slot so the tail-first write
// pattern of the backward format keeps working with variable compressed
// sizes. A block is one write — frame and payload together — and one read.
type blockBackend struct {
	fs   vfs.FS
	comp Compression
	c    *counters
	pool *Pool
}

func (b *blockBackend) String() string { return "block(" + string(b.comp) + ")" }

func (b *blockBackend) Stats() IOStats { return b.c.snapshot() }

func (b *blockBackend) Remove(name string) error { return b.fs.Remove(name) }

func (b *blockBackend) blockPool() *Pool { return b.pool }

func (b *blockBackend) Create(name string) (BlockWriter, error) {
	f, err := b.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &blockWriter{f: f, c: b.c, z: compressor{comp: b.comp, pool: b.pool}}, nil
}

func (b *blockBackend) Open(name string) (BlockReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &blockReader{blockSource: blockSource{f: f, c: b.c, pool: b.pool}}, nil
}

func (b *blockBackend) CreatePaged(name string, pageSize, pages int) (PageWriter, error) {
	f, err := b.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &blockPageWriter{f: f, c: b.c, z: compressor{comp: b.comp, pool: b.pool}, pool: b.pool, slot: frameSize + pageSize}, nil
}

func (b *blockBackend) OpenPaged(name string) (PageReader, error) {
	f, err := b.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &blockReader{blockSource: blockSource{f: f, c: b.c, pool: b.pool}, paged: true}, nil
}

// blockSource reads the blocks of one file front to back through a sliding
// window: a pooled buffer holding the file's next bytes, refilled by one
// ReadAt when the next block is not wholly in it. The window is made when
// the file's first block is read, for the block size the caller expects,
// and made again only for a block larger than that; every read fills as
// much of it as whole blocks (or chain slots) allow, so a window the size
// of a block costs one read per block, a larger one less, and nothing is
// read twice. Verified payloads are served in place, out of the window (or
// out of the decompressor's buffer).
type blockSource struct {
	f    vfs.File
	c    *counters
	pool *Pool
	z    decompressor
	win  []byte // win[lo:hi] holds the file's bytes from offset pos on
	lo   int
	hi   int
	pos  int64
	eof  bool // a read came back short: the file ends at win[hi]
	// unit is what reads are a whole number of when the window has room:
	// a chain file's slot, or a forward stream's last block met, frame
	// included, so that in a file of equal blocks none straddles two reads
	// and nothing in the window ever has to move.
	unit int
	// slot is a chain file's slot size, set by Seek; 0 for a forward stream.
	slot int
}

// seek moves the window's front to file offset off, keeping what it holds
// of the file from there on.
func (s *blockSource) seek(off int64) {
	if d := off - s.pos; d >= 0 && d <= int64(s.hi-s.lo) {
		s.lo += int(d)
	} else {
		s.lo, s.hi, s.eof = 0, 0, false
	}
	s.pos = off
}

// fill makes the window hold n bytes from its front, if the file has them,
// and returns how many it holds. A window too small for n — a block larger
// than the caller expected — is replaced by one of n bytes. What the window
// holds starts framePad bytes in, so that behind a frame there the payload
// starts on a cache line.
func (s *blockSource) fill(n int) (int, error) {
	have := s.hi - s.lo
	if have >= n || s.eof {
		return have, nil
	}
	if len(s.win) < framePad+n {
		win := s.pool.Get(framePad + n)
		copy(win[framePad:], s.win[s.lo:s.hi])
		s.pool.Put(s.win)
		s.win = win
	} else if s.lo > framePad {
		copy(s.win[framePad:], s.win[s.lo:s.hi])
	}
	s.lo, s.hi = framePad, framePad+have
	room := len(s.win) - framePad
	if s.unit > 0 && room-room%s.unit >= n {
		room -= room % s.unit
	}
	got, err := s.f.ReadAt(s.win[s.hi:framePad+room], s.pos+int64(have))
	s.hi += got
	s.c.storedR.Add(int64(got))
	if err == io.EOF {
		s.eof, err = true, nil
	}
	return s.hi - s.lo, err
}

// next reads, verifies and inflates the block at the window's front and
// moves past it. sizeHint is the payload size the caller expects — what the
// window is made for; a larger block regrows it. It returns io.EOF at a
// clean end of file. The payload is valid until the next call.
func (s *blockSource) next(sizeHint int) ([]byte, error) {
	corrupt := func(err error) ([]byte, error) {
		s.c.verifyFailures.Add(1)
		return nil, err
	}
	if s.win == nil {
		s.win = s.pool.Get(framePad + frameSize + sizeHint)
		s.lo, s.hi = framePad, framePad
	}
	n, err := s.fill(frameSize)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, io.EOF
	}
	if n < frameSize {
		return corrupt(fmt.Errorf("%w: truncated frame (%d of %d bytes)", ErrCorrupt, n, frameSize))
	}
	fr, err := decodeFrame(s.win[s.lo:])
	if err != nil {
		return corrupt(err)
	}
	stored := frameSize + fr.compLen
	if s.unit = s.slot; s.slot == 0 {
		s.unit = stored
	}
	if n, err = s.fill(stored); err != nil {
		return nil, err
	}
	if n < stored {
		return corrupt(fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, n-frameSize, fr.compLen))
	}
	raw, err := s.z.decompress(fr, s.win[s.lo+frameSize:s.lo+stored])
	if err != nil {
		return corrupt(err)
	}
	if got := crc32.ChecksumIEEE(raw); got != fr.crc {
		return corrupt(fmt.Errorf("%w: crc %#x, frame says %#x", ErrChecksum, got, fr.crc))
	}
	s.seek(s.pos + int64(stored))
	s.c.read(int64(fr.rawLen), 0) // fill counted the stored bytes as it read them
	return raw, nil
}

// Close returns the window to the pool and closes the file.
func (s *blockSource) Close() error {
	s.pool.Put(s.win)
	s.win = nil
	return s.f.Close()
}

// blockWriter appends framed blocks back to back.
type blockWriter struct {
	f   vfs.File
	c   *counters
	z   compressor
	off int64
}

func (w *blockWriter) Append(p []byte) error { return w.append(p, nil) }

// AppendInPlace implements InPlaceAppender.
func (w *blockWriter) AppendInPlace(block []byte) error {
	return w.append(block[FrameHeadroom:], block[framePad:])
}

func (w *blockWriter) append(p, block []byte) error {
	out, err := w.z.framed(p, block)
	if err != nil {
		return err
	}
	if _, err := w.f.WriteAt(out, w.off); err != nil {
		return err
	}
	w.c.wrote(1, int64(len(p)), int64(len(out)))
	w.off += int64(len(out))
	return nil
}

func (w *blockWriter) Close() error {
	w.z.release()
	return w.f.Close()
}

// blockReader serves verified block payloads: a forward stream's blocks in
// order or, once Seek has positioned it, a chain file's slots from the
// start page to the last. Either way it lends each payload out of its
// window (BlockLender), and Read copies it out.
type blockReader struct {
	blockSource
	payload []byte // the rest of the block Read is copying out
	// A chain file's position: the next slot to read, the last, and how
	// far into the first one the payload starts.
	page, last, skip int
	paged, seeked    bool
}

// NextBlock implements BlockLender.
func (r *blockReader) NextBlock(sizeHint int) ([]byte, error) {
	if rest := r.payload; len(rest) > 0 {
		r.payload = nil
		return rest, nil
	}
	for {
		raw, err := r.nextBlock(sizeHint)
		if err != nil || len(raw) > 0 {
			return raw, err
		}
	}
}

// nextBlock returns the payload of the next block or chain slot.
func (r *blockReader) nextBlock(sizeHint int) ([]byte, error) {
	if !r.paged {
		return r.next(sizeHint)
	}
	if !r.seeked {
		return nil, fmt.Errorf("storage: paged read before Seek")
	}
	if r.page > r.last {
		return nil, io.EOF
	}
	r.seek(int64(r.page) * int64(r.slot))
	// io.EOF here is a short physical file: it ends the chain file.
	raw, err := r.next(sizeHint)
	if err != nil {
		return nil, err
	}
	r.page++
	raw = raw[min(r.skip, len(raw)):]
	r.skip = 0
	return raw, nil
}

func (r *blockReader) Read(p []byte) (int, error) {
	if len(r.payload) == 0 {
		raw, err := r.NextBlock(len(p))
		if err != nil {
			return 0, err
		}
		r.payload = raw
	}
	n := copy(p, r.payload)
	r.payload = r.payload[n:]
	return n, nil
}

func (r *blockReader) ReadHeader(p []byte) error {
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

func (r *blockReader) Seek(startPage, startPos, pageSize, pages int) error {
	r.slot = frameSize + pageSize
	r.page = startPage
	r.last = pages - 1
	r.skip = startPos
	r.seeked = true
	return nil
}

// blockPageWriter gives page i the fixed slot [i*(frameSize+pageSize), …):
// offsets stay computable for the tail-first write pattern while each slot
// holds a frame plus at most pageSize of (possibly compressed) payload.
// Slot 0 carries the raw chain header, as page 0 does in the raw layout.
type blockPageWriter struct {
	f    vfs.File
	c    *counters
	z    compressor
	pool *Pool
	slot int
	buf  []byte // a run of framed slots, stored with one write
}

// WritePage frames each page of the run into its slot of one buffer and
// stores the slots with one write.
func (w *blockPageWriter) WritePage(idx int, pages []byte) error {
	size := w.slot - frameSize
	n := (len(pages) + size - 1) / size
	if len(w.buf) < n*w.slot {
		w.pool.Put(w.buf)
		w.buf = w.pool.Get(n * w.slot)
	}
	end := 0
	var raw, stored int64
	for at := 0; len(pages) > 0; at += w.slot {
		p := pages[:min(len(pages), size)]
		block := w.buf[at : at+frameSize+len(p)]
		copy(block[frameSize:], p)
		out, err := w.z.framed(block[frameSize:], block)
		if err != nil {
			return err
		}
		// A compressed page lands in front of its slot, zeros behind it.
		k := copy(w.buf[at:at+w.slot], out)
		clear(w.buf[at+k : at+w.slot])
		end = at + k
		raw, stored = raw+int64(len(p)), stored+int64(k)
		pages = pages[len(p):]
	}
	if _, err := w.f.WriteAt(w.buf[:end], int64(idx)*int64(w.slot)); err != nil {
		return err
	}
	w.c.wrote(int64(n), raw, stored)
	return nil
}

func (w *blockPageWriter) WriteTail(idx int, payload []byte) (int, error) {
	// Framed slots store exactly the payload: an ascending read starts at
	// its first byte, so the start position is always 0.
	return 0, w.WritePage(idx, payload)
}

func (w *blockPageWriter) WriteHeader(hdr []byte) error {
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	w.c.wrote(1, int64(len(hdr)), int64(len(hdr)))
	return nil
}

func (w *blockPageWriter) Close() error {
	w.z.release()
	w.pool.Put(w.buf)
	w.buf = nil
	return w.f.Close()
}
