// Package stream defines the generic stream interfaces the whole library is
// built on, together with in-memory adapters and copy helpers. Every layer
// of the sorter — run generation, run storage, the merge phase and the
// public API — moves values of an arbitrary element type T through these
// interfaces.
//
// Below the public boundary there is one read protocol: BatchReader
// (batch.go), which amortises dynamic dispatch over whole pages of elements.
// Reader, the element-at-a-time shape, is what a caller's source looks like
// (repro.Source, a generator, a byte stream of records): the entry points
// that accept one adapt it once with AsBatchReader, and nothing inside the
// library implements or calls Read. Writes mirror it: BatchWriter is the one
// write protocol, and Writer, the shape of a caller's sink, is adapted once
// by AsBatchWriter where it enters. A producer that emits an element at a
// time (a run generator) stages them in an ElementWriter, the write-side
// Fetcher.
package stream

import (
	"errors"
	"io"
	"math"
)

// ErrClosed is returned by stream operations after Close.
var ErrClosed = errors.New("stream: closed")

// Reader is the shape of a caller's source: it yields elements one at a
// time, and Read returns io.EOF when the stream is exhausted. The library
// reads one only through AsBatchReader.
type Reader[T any] interface {
	Read() (T, error)
}

// Writer is the shape of a caller's sink: it consumes elements one at a
// time. The library writes to one only through AsBatchWriter.
type Writer[T any] interface {
	Write(T) error
}

// SliceReader adapts an in-memory slice to the Reader interface.
type SliceReader[T any] struct {
	vals []T
	pos  int
}

// NewSliceReader returns a Reader over vals. The slice is not copied; the
// caller must not mutate it while reading.
func NewSliceReader[T any](vals []T) *SliceReader[T] {
	return &SliceReader[T]{vals: vals}
}

// Read returns the next element or io.EOF.
func (s *SliceReader[T]) Read() (T, error) {
	if s.pos >= len(s.vals) {
		var zero T
		return zero, io.EOF
	}
	v := s.vals[s.pos]
	s.pos++
	return v, nil
}

// ReadBatch copies up to len(dst) elements into dst.
func (s *SliceReader[T]) ReadBatch(dst []T) (int, error) {
	if s.pos >= len(s.vals) {
		if len(dst) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(dst, s.vals[s.pos:])
	s.pos += n
	return n, nil
}

// Remaining reports how many elements have not been read yet.
func (s *SliceReader[T]) Remaining() int { return len(s.vals) - s.pos }

// SliceWriter collects written elements in memory.
type SliceWriter[T any] struct {
	// Vals holds every element written so far, in write order.
	Vals []T
}

// Write appends v.
func (s *SliceWriter[T]) Write(v T) error {
	s.Vals = append(s.Vals, v)
	return nil
}

// WriteBatch appends src.
func (s *SliceWriter[T]) WriteBatch(src []T) error {
	s.Vals = append(s.Vals, src...)
	return nil
}

// Meter reads R, counting the elements read, N so far, and handing each
// batch's count to Add: a sort's input position and progress.
type Meter[T any] struct {
	R   BatchReader[T]
	Add func(int64)
	N   int64
}

// ReadBatch reads from R and counts what it read.
func (m *Meter[T]) ReadBatch(dst []T) (int, error) {
	k, err := m.R.ReadBatch(dst)
	m.N += int64(k)
	m.Add(int64(k))
	return k, err
}

// Remaining forwards Sized; -1 when R does not know.
func (m *Meter[T]) Remaining() int { return RemainingOf(m.R) }

// ReadAll drains a caller's source into a slice. It is intended for tests
// and examples where the stream is known to fit in memory. Sources that
// report their Remaining length get a pre-sized output slice instead of
// append-doubling.
func ReadAll[T any](r Reader[T]) ([]T, error) {
	return ReadAllCancel(AsBatchReader(r), nil)
}

// ReadAllCancel drains r with a cancellation hook: cancel (nil means never)
// is polled before every batch of at most DefaultBatchLen elements — the
// 1024-op cadence the public API's context wrappers guarantee.
func ReadAllCancel[T any](r BatchReader[T], cancel func() error) ([]T, error) {
	var out []T
	if s, ok := r.(Sized); ok && s.Remaining() > 0 {
		out = make([]T, 0, s.Remaining())
	}
	out, _, err := ReadPrefix(r, out, math.MaxInt, cancel)
	return out, err
}

// Copy streams a caller's source into a caller's sink until EOF, returning
// the number of elements copied, in whole batches: each side is adapted to
// the batch protocol unless it speaks it already.
func Copy[T any](w Writer[T], r Reader[T]) (int64, error) {
	return CopyCancel(AsBatchWriter(w), AsBatchReader(r), nil)
}

// CopyCancel streams r into w until EOF with a cancellation hook: cancel (nil
// means never) is polled before every batch, bounding the work done after
// cancellation to one DefaultBatchLen batch — the 1024-op cadence DESIGN.md
// documents. The merge phase and the operator layer use it to honour context
// cancellation mid-stream.
func CopyCancel[T any](w BatchWriter[T], r BatchReader[T], cancel func() error) (int64, error) {
	return CopyN(w, r, math.MaxInt64, cancel)
}

// CopyN is CopyCancel stopping after n elements: it streams at most n from r
// to w and returns the number copied, fewer than n with a nil error when r
// ended first. It is the one capped batch loop: Discard is CopyN to nowhere.
func CopyN[T any](w BatchWriter[T], r BatchReader[T], n int64, cancel func() error) (int64, error) {
	return copyN(w, r, n, make([]T, max(0, min(n, DefaultBatchLen))), cancel)
}

// CopyBuffer is CopyCancel moving its batches through buf instead of a
// buffer of its own, for a caller that copies stream after stream (a merge
// worker, once per merge operation).
func CopyBuffer[T any](w BatchWriter[T], r BatchReader[T], buf []T, cancel func() error) (int64, error) {
	return copyN(w, r, math.MaxInt64, buf, cancel)
}

func copyN[T any](w BatchWriter[T], br BatchReader[T], n int64, buf []T, cancel func() error) (int64, error) {
	var done int64
	for done < n {
		if cancel != nil {
			if err := cancel(); err != nil {
				return done, err
			}
		}
		k, err := br.ReadBatch(buf[:min(n-done, int64(len(buf)))])
		if k > 0 {
			if werr := w.WriteBatch(buf[:k]); werr != nil {
				return done, werr
			}
			done += int64(k)
		}
		if err == io.EOF || (err == nil && k == 0) {
			break
		}
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
