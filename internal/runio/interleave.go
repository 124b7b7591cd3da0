package runio

import (
	"io"

	"repro/internal/stream"
)

// interleaveReader merges a handful of sorted streams (the ≤4 streams of a
// 2WRS run whose ranges overlap) into one sorted stream. With so few
// sources a linear minimum scan beats tournament structures.
type interleaveReader[T any] struct {
	srcs    []*Reader[T]
	less    func(a, b T) bool
	heads   []T
	alive   []bool
	n       int
	closed  bool
	pendErr error // error deferred by ReadBatch after a partial batch
}

// newInterleaveReader primes each source. It takes ownership of the
// sources and closes them all on Close or on a priming error.
func newInterleaveReader[T any](srcs []*Reader[T], less func(a, b T) bool) (ReadCloser[T], error) {
	ir := &interleaveReader[T]{
		srcs:  srcs,
		less:  less,
		heads: make([]T, len(srcs)),
		alive: make([]bool, len(srcs)),
	}
	for i, s := range srcs {
		rec, err := s.Read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			ir.Close()
			return nil, err
		}
		ir.heads[i] = rec
		ir.alive[i] = true
		ir.n++
	}
	return ir, nil
}

// Read returns the minimum head across sources.
func (ir *interleaveReader[T]) Read() (T, error) {
	var zero T
	if ir.closed {
		return zero, stream.ErrClosed
	}
	if ir.n == 0 {
		return zero, io.EOF
	}
	best := -1
	for i, ok := range ir.alive {
		if !ok {
			continue
		}
		if best == -1 || ir.less(ir.heads[i], ir.heads[best]) {
			best = i
		}
	}
	out := ir.heads[best]
	rec, err := ir.srcs[best].Read()
	switch {
	case err == io.EOF:
		ir.alive[best] = false
		ir.n--
	case err != nil:
		return zero, err
	default:
		ir.heads[best] = rec
	}
	return out, nil
}

// ReadBatch fills dst per the stream.BatchReader contract, deferring an
// error met after a partial batch to the following call.
func (ir *interleaveReader[T]) ReadBatch(dst []T) (int, error) {
	if ir.closed {
		return 0, stream.ErrClosed
	}
	return stream.ReadBatchElems[T](ir, &ir.pendErr, dst)
}

// Close closes every source.
func (ir *interleaveReader[T]) Close() error {
	if ir.closed {
		return stream.ErrClosed
	}
	ir.closed = true
	var first error
	for _, s := range ir.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
