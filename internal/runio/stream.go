package runio

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/stream"
)

// StreamWriter is one output stream of a run while it is being generated:
// elements go in in the stream's direction, and once Close has returned nil
// Segment describes what was stored. Emitter.Stream is where run generators
// get one; the direction they ask for picks the layout behind it (Writer or
// BackwardWriter), and nothing else about the stream depends on it.
type StreamWriter[T any] interface {
	stream.BatchWriter[T]
	// Close stores what is still buffered and closes the stream's files.
	Close() error
	// Segment describes the stream as written so far: its name, element
	// count, layout and, for a chain, the files created.
	Segment() Segment
}

// layout is what a stream's shared part asks of the writer it is embedded
// in — the two things about ending a stream that depend on how it is stored.
type layout interface {
	// flush stores what the writer has buffered.
	flush() error
	// release closes whatever file the writer holds open, storing nothing
	// more. It runs on every way out of a stream, flush's failure included,
	// so no handle outlives its writer.
	release() error
}

// streamBase is the part of a spill-stream writer that does not depend on
// its layout: the description of the stream being built, the run-order
// check, the content checksum, and the end of its life — Close, or abort on
// a failure path. The two layouts share no more than this (one fills a
// pooled block front to back, the other back to front and into a chain of
// paged files), so each keeps its own fill loop around it.
type streamBase[T any] struct {
	// seg is the stream so far: Records counts the elements admitted,
	// Backward is its direction, Files the chain files created.
	seg    Segment
	c      codec.Codec[T]
	bulk   codec.Bulk[T] // c's bulk kernels, when it is fixed-width and has them
	less   func(a, b T) bool
	last   T
	closed bool
	// summed makes the stream fold every encoded element into sum, its
	// order-insensitive content checksum (ContentSum), which Close records
	// as the segment's Sum. The per-element CRC is paid only when the
	// emitter runs with Checksums on.
	summed bool
	sum    uint64
	layout layout
	// em, when set, is the emitter that opened the stream and lists it as
	// live until it closes or is aborted.
	em *Emitter[T]
}

// newStreamBase returns the shared part of a writer of layout l.
func newStreamBase[T any](seg Segment, c codec.Codec[T], less func(a, b T) bool, l layout) streamBase[T] {
	s := streamBase[T]{seg: seg, c: c, less: less, layout: l}
	if c.FixedSize() > 0 {
		s.bulk, _ = c.(codec.Bulk[T])
	}
	return s
}

// Segment describes the stream as written so far.
func (s *streamBase[T]) Segment() Segment { return s.seg }

// outOfOrder reports r arriving after prev against the stream's direction.
func (s *streamBase[T]) outOfOrder(r, prev T) error {
	dir := "forward"
	if s.seg.Backward {
		dir = "backward"
	}
	return fmt.Errorf("%w: %s run got %v after %v", ErrOutOfOrder, dir, r, prev)
}

// admitAll takes the elements of page into the stream, in order: each must
// continue it in its direction — not below the element before it in an
// ascending stream, not above it in a descending one. The direction test is
// made once per page rather than per element, where it is measurable on the
// merge's output path.
func (s *streamBase[T]) admitAll(page []T) error {
	prev, i := s.last, 0
	if s.seg.Records == 0 {
		prev, i = page[0], 1
	}
	if s.seg.Backward {
		for ; i < len(page); i++ {
			if s.less(prev, page[i]) {
				return s.outOfOrder(page[i], prev)
			}
			prev = page[i]
		}
	} else {
		for ; i < len(page); i++ {
			if s.less(page[i], prev) {
				return s.outOfOrder(page[i], prev)
			}
			prev = page[i]
		}
	}
	s.last = prev
	s.seg.Records += int64(len(page))
	return nil
}

// Close stores what is buffered, closes the stream's files and records the
// content checksum in the segment when one is kept.
func (s *streamBase[T]) Close() error {
	if s.closed {
		return stream.ErrClosed
	}
	err := s.layout.flush()
	if rerr := s.retire(); err == nil {
		err = rerr
	}
	if s.summed {
		s.seg.Sum = s.sum
	}
	return err
}

// retire ends the stream's life: the emitter stops listing it and its open
// file is closed.
func (s *streamBase[T]) retire() error {
	s.closed = true
	if s.em != nil {
		s.em.forget(s)
	}
	return s.layout.release()
}

// abort closes a stream an error path abandoned, without flushing: the
// caller is about to remove or invalidate its files anyway.
func (s *streamBase[T]) abort() {
	if !s.closed {
		s.retire()
	}
}
