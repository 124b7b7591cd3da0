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

func (nowhere[T]) WriteBatch([]T) error { return nil }

// Prepended replays a buffer, then continues with the reader it was taken
// from: how a consumer that had to look at the head of a stream — a sampled
// check, a probe, a selection that outgrew memory — hands the whole stream
// on.
type Prepended[T any] struct {
	head []T
	tail BatchReader[T]
	// buf is the head's whole buffer, handed to put once the head has been
	// served, when the reader owns it (PrependOwned).
	buf []T
	put func([]T)
}

// Prepend returns a reader serving head, then tail. head is not copied.
func Prepend[T any](head []T, tail BatchReader[T]) *Prepended[T] {
	return &Prepended[T]{head: head, tail: tail}
}

// PrependOwned is Prepend of a head whose buffer nothing else uses: once
// the head has been served the reader hands the buffer, emptied, to put —
// a probe's prefix goes back to the scratch it was borrowed from as soon as
// it has been dealt.
func PrependOwned[T any](head []T, tail BatchReader[T], put func([]T)) *Prepended[T] {
	return &Prepended[T]{head: head, tail: tail, buf: head[:0], put: put}
}

// Adopt hands the unread head and the tail to a consumer that would
// otherwise copy the head into a load buffer of n elements, when the head
// is at most n elements in a buffer of at least n: the consumer reads the
// head in place and the tail after it, no longer reads p, and owns the
// head's buffer from then on. Otherwise ok is false and p is as it was.
func (p *Prepended[T]) Adopt(n int) (head []T, tail BatchReader[T], ok bool) {
	if len(p.head) > n || cap(p.head) < n {
		return nil, nil, false
	}
	p.put = nil
	return p.head, p.tail, true
}

// ReadBatch serves the buffer first — a batch never spans the seam — then
// the tail.
func (p *Prepended[T]) ReadBatch(dst []T) (int, error) {
	if len(p.head) > 0 {
		n := copy(dst, p.head)
		if p.head = p.head[n:]; len(p.head) == 0 && p.put != nil {
			p.put(p.buf)
			p.put = nil
		}
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
