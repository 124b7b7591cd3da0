package record

import "io"

// ByteReader decodes records from an io.Reader carrying the binary record
// encoding. It buffers internally in whole-record units.
type ByteReader struct {
	src     io.Reader
	buf     [Size]byte
	slab    []byte // batch decode scratch
	pendErr error  // error deferred by ReadBatch after a partial batch
}

// NewByteReader returns a ByteReader decoding records from src.
func NewByteReader(src io.Reader) *ByteReader { return &ByteReader{src: src} }

// Read decodes the next record. A trailing partial record surfaces as
// io.ErrUnexpectedEOF.
func (b *ByteReader) Read() (Record, error) {
	if _, err := io.ReadFull(b.src, b.buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, err
	}
	return Decode(b.buf[:]), nil
}

// ReadBatch decodes up to len(dst) records from one slab read of the
// underlying byte stream.
func (b *ByteReader) ReadBatch(dst []Record) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if b.pendErr != nil {
		err := b.pendErr
		b.pendErr = nil
		return 0, err
	}
	want := len(dst) * Size
	if cap(b.slab) < want {
		b.slab = make([]byte, want)
	}
	slab := b.slab[:want]
	n, err := io.ReadFull(b.src, slab)
	recs := n / Size
	for i := 0; i < recs; i++ {
		dst[i] = Decode(slab[i*Size:])
	}
	if err == io.ErrUnexpectedEOF && n%Size == 0 {
		// The stream ended cleanly on a record boundary mid-slab.
		err = io.EOF
	}
	if err != nil {
		if recs > 0 {
			b.pendErr = err
			return recs, nil
		}
		return 0, err
	}
	return recs, nil
}

// ByteWriter encodes records onto an io.Writer.
type ByteWriter struct {
	dst  io.Writer
	buf  [Size]byte
	slab []byte // batch encode scratch
}

// NewByteWriter returns a ByteWriter encoding records to dst.
func NewByteWriter(dst io.Writer) *ByteWriter { return &ByteWriter{dst: dst} }

// Write encodes r to the underlying writer.
func (b *ByteWriter) Write(r Record) error {
	Encode(b.buf[:], r)
	_, err := b.dst.Write(b.buf[:])
	return err
}

// WriteBatch encodes src into one slab and hands it to the underlying
// writer in a single call.
func (b *ByteWriter) WriteBatch(src []Record) error {
	want := len(src) * Size
	if cap(b.slab) < want {
		b.slab = make([]byte, want)
	}
	slab := b.slab[:want]
	for i, r := range src {
		Encode(slab[i*Size:], r)
	}
	_, err := b.dst.Write(slab)
	return err
}
