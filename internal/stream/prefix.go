package stream

import "io"

// The three things every layer does to the head of a stream, once each:
// buffer it (ReadPrefix), throw it away (Discard) and put a buffer back in
// front of what is left (Prepend). Cancel hooks follow ReadAllCancel: nil
// means never, and they are polled before every batch of at most
// DefaultBatchLen elements.

// ReadPrefix appends the next elements of r to buf — at most n of them,
// growing buf as needed — and reports whether r ended before the n-th. On
// an error it returns what it had read. A caller that wants to know whether
// a stream holds more than limit elements asks for limit+1.
func ReadPrefix[T any](br BatchReader[T], buf []T, n int, cancel func() error) (_ []T, ended bool, err error) {
	var scratch []T
	for read := 0; read < n; {
		if cancel != nil {
			if err := cancel(); err != nil {
				return buf, false, err
			}
		}
		// A batch lands in buf's spare capacity, or — so that a buf sized
		// exactly is not regrown by the read that finds the end of the
		// stream — in a scratch buffer once buf is full.
		dst, direct := buf[len(buf):cap(buf)], len(buf) < cap(buf)
		if !direct {
			if scratch == nil {
				scratch = make([]T, min(n-read, DefaultBatchLen))
			}
			dst = scratch
		}
		k, err := br.ReadBatch(dst[:min(len(dst), n-read, DefaultBatchLen)])
		if direct {
			buf = buf[:len(buf)+k]
		} else {
			buf = append(buf, dst[:k]...)
		}
		if read += k; err == io.EOF || (err == nil && k == 0) {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
	}
	return buf, false, nil
}

// Discard reads and drops the next n elements of r and returns how many it
// dropped: fewer than n with a nil error means r ended first.
func Discard[T any](r BatchReader[T], n int64, cancel func() error) (int64, error) {
	return CopyN[T](nowhere[T]{}, r, n, cancel)
}

// nowhere is the writer that keeps nothing.
type nowhere[T any] struct{}

func (nowhere[T]) Write(T) error        { return nil }
func (nowhere[T]) WriteBatch([]T) error { return nil }

// Prepended replays a buffer, then continues with the reader it was taken
// from: how a consumer that had to look at the head of a stream — a sampled
// check, a probe, a selection that outgrew memory — hands the whole stream
// on.
type Prepended[T any] struct {
	head []T
	tail BatchReader[T]
}

// Prepend returns a reader serving head, then tail. head is not copied.
func Prepend[T any](head []T, tail BatchReader[T]) *Prepended[T] {
	return &Prepended[T]{head: head, tail: tail}
}

// Split returns the unread head and the tail, for a consumer that would
// otherwise copy the head into a buffer of its own: it reads the head in
// place and the tail after it, and no longer reads p.
func (p *Prepended[T]) Split() ([]T, BatchReader[T]) { return p.head, p.tail }

// ReadBatch serves the buffer first — a batch never spans the seam — then
// the tail.
func (p *Prepended[T]) ReadBatch(dst []T) (int, error) {
	if len(p.head) > 0 {
		n := copy(dst, p.head)
		p.head = p.head[n:]
		return n, nil
	}
	return p.tail.ReadBatch(dst)
}

// Remaining forwards Sized: the unread buffer plus what the tail reports,
// or -1 when the tail does not know.
func (p *Prepended[T]) Remaining() int {
	if n := RemainingOf(p.tail); n >= 0 {
		return len(p.head) + n
	}
	return -1
}
