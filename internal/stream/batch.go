package stream

import "io"

// DefaultBatchLen is the element count the adapters and copy helpers use
// for internal batch buffers when the caller does not pick one. One
// interface call per 1024 elements makes dynamic-dispatch overhead
// unmeasurable while keeping the buffer well inside L2 for small elements.
const DefaultBatchLen = 1024

// BatchReader is the batch half of the streaming protocol: ReadBatch fills
// dst with up to len(dst) elements and returns how many it stored.
//
// The contract mirrors a strict io.Reader: when n > 0 the error is always
// nil — an error (including io.EOF) discovered after some elements were
// already read is held back and returned by the next call with n == 0.
// After io.EOF every read returns (0, io.EOF); after a failure it fails
// again, never reporting the end. An empty dst reads nothing and returns
// (0, nil), though a failed reader may answer it with its failure; a closed
// one returns ErrClosed (TestReaderContract holds every reader to this).
// Callers therefore loop:
//
//	n, err := br.ReadBatch(buf)
//	// process buf[:n]
//	if err == io.EOF { done }
type BatchReader[T any] interface {
	ReadBatch(dst []T) (n int, err error)
}

// BatchWriter consumes elements a batch at a time. WriteBatch must not
// retain src, which the caller will reuse.
type BatchWriter[T any] interface {
	WriteBatch(src []T) error
}

// Sized is implemented by sources that know how many elements remain
// (e.g. SliceReader), and by the wrappers that forward the hint of what they
// wrap, where a negative count means unknown; consumers use it to pre-size
// output slices.
type Sized interface {
	Remaining() int
}

// AsBatchReader is where a caller's source crosses into the library: it
// returns r itself when it already implements BatchReader, otherwise an
// adapter that fills each batch with element-at-a-time reads and forwards
// the source's Remaining hint. An entry point calls it once on the source it
// was given; everything below reads batches.
func AsBatchReader[T any](r Reader[T]) BatchReader[T] {
	if br, ok := r.(BatchReader[T]); ok {
		return br
	}
	return &readerBatcher[T]{r: r}
}

// readerBatcher adapts an element reader to the batch protocol, deferring
// a mid-batch error to the following call as the contract requires.
type readerBatcher[T any] struct {
	r   Reader[T]
	err error
}

func (b *readerBatcher[T]) ReadBatch(dst []T) (int, error) {
	if b.err != nil && len(dst) > 0 {
		err := b.err
		b.err = nil
		return 0, err
	}
	n := 0
	for n < len(dst) {
		v, err := b.r.Read()
		if err != nil {
			if n > 0 {
				b.err = err
				return n, nil
			}
			return 0, err
		}
		dst[n] = v
		n++
	}
	return n, nil
}

// Remaining forwards Sized: what the source reports, or -1 when it does not
// know.
func (b *readerBatcher[T]) Remaining() int { return RemainingOf(b.r) }

// RemainingOf is src's Remaining when it is Sized, and -1 — unknown — when
// it is not: how a wrapper forwards the hint of whatever it wraps.
func RemainingOf(src any) int {
	if s, ok := src.(Sized); ok {
		return s.Remaining()
	}
	return -1
}

// AsBatchWriter is where a caller's sink crosses into the library, once: it
// returns w itself when it already implements BatchWriter, otherwise an
// adapter that writes each batch element by element.
func AsBatchWriter[T any](w Writer[T]) BatchWriter[T] {
	if bw, ok := w.(BatchWriter[T]); ok {
		return bw
	}
	return writerBatcher[T]{w: w}
}

type writerBatcher[T any] struct {
	w Writer[T]
}

func (b writerBatcher[T]) WriteBatch(src []T) error {
	for _, v := range src {
		if err := b.w.Write(v); err != nil {
			return err
		}
	}
	return nil
}

// ElementWriter stages element-at-a-time writes into batches for a batch
// writer, the write-side mirror of Fetcher: a producer that emits an element
// at a time (a run generator, a join) pays a WriteBatch per batch. The caller
// must Flush when done; Write errors reflect the last batch handed on.
type ElementWriter[T any] struct {
	bw  BatchWriter[T]
	buf []T
}

// NewElementWriter returns a Writer over bw batching batchLen elements per
// downstream call (0 means DefaultBatchLen).
func NewElementWriter[T any](bw BatchWriter[T], batchLen int) *ElementWriter[T] {
	if batchLen <= 0 {
		batchLen = DefaultBatchLen
	}
	return &ElementWriter[T]{bw: bw, buf: make([]T, 0, batchLen)}
}

// Reset points the writer at bw, dropping what is staged: a generator keeps
// one per stream across the runs it writes.
func (w *ElementWriter[T]) Reset(bw BatchWriter[T]) { w.bw, w.buf = bw, w.buf[:0] }

// Write stages v, forwarding a full batch downstream.
func (w *ElementWriter[T]) Write(v T) error {
	w.buf = append(w.buf, v)
	if len(w.buf) == cap(w.buf) {
		return w.Flush()
	}
	return nil
}

// WriteBatch forwards what is staged, then src, so that writes of either
// shape arrive downstream in the order they were made.
func (w *ElementWriter[T]) WriteBatch(src []T) error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.bw.WriteBatch(src)
}

// Flush forwards any staged elements downstream. On failure they stay
// staged, so a later Flush retries the same batch.
func (w *ElementWriter[T]) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.bw.WriteBatch(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// Fetcher pulls elements from a source through an internal batch buffer,
// turning the per-element interface dispatch of hot consumer loops (run
// generation, merging) into an array index plus one batched call per
// DefaultBatchLen elements.
type Fetcher[T any] struct {
	br   BatchReader[T]
	buf  []T
	pos  int
	n    int
	done bool
	err  error
}

// NewFetcher returns a Fetcher over r with the given batch length (0 means
// DefaultBatchLen).
func NewFetcher[T any](r BatchReader[T], batchLen int) *Fetcher[T] {
	if batchLen <= 0 {
		batchLen = DefaultBatchLen
	}
	return &Fetcher[T]{br: r, buf: make([]T, batchLen)}
}

// FetchLen sizes a run generator's Fetcher against its memory budget (in
// elements): large enough to amortise dispatch, a small fraction of the
// budget itself.
func FetchLen(memory int) int {
	return min(max(memory/8, 64), DefaultBatchLen)
}

// Next returns the next element; ok is false once the source is exhausted
// or failed (err carries the failure, nil for a plain end of stream).
func (f *Fetcher[T]) Next() (T, bool, error) {
	if f.pos < f.n {
		v := f.buf[f.pos]
		f.pos++
		return v, true, nil
	}
	return f.refill()
}

// Peek returns the elements of the current batch not yet taken, reading
// the next batch when none are left, or none at the end of the source (err
// carries a failure). The caller may overwrite them; Skip takes them.
func (f *Fetcher[T]) Peek() ([]T, error) {
	if f.pos == f.n {
		if _, ok, err := f.refill(); !ok {
			return nil, err
		}
		f.pos = 0
	}
	return f.buf[f.pos:f.n], nil
}

// Skip takes the next k elements Peek returned, as k calls of Next would.
func (f *Fetcher[T]) Skip(k int) { f.pos += k }

func (f *Fetcher[T]) refill() (T, bool, error) {
	var zero T
	if f.done {
		return zero, false, f.err
	}
	n, err := f.br.ReadBatch(f.buf)
	if err == io.EOF {
		f.done = true
		return zero, false, nil
	}
	if err != nil {
		f.done, f.err = true, err
		return zero, false, err
	}
	if n == 0 {
		// A batch reader never legitimately returns (0, nil) for a non-empty
		// dst; treat it as end of stream rather than spinning.
		f.done = true
		return zero, false, nil
	}
	f.pos, f.n = 1, n
	return f.buf[0], true, nil
}
