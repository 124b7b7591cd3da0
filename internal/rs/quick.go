package rs

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/runio"
	"repro/internal/stream"
)

// QuickStepper is the Load-Sort-Store baseline (§2.1.1) one run at a time,
// as memory-sized sorted batches: fill the memory budget, sort it stably —
// by radix on key prefixes where a key codec allows, by merge sort under the
// comparator otherwise (codec.KeySorter) — and store it as one run (the
// thesis sorts with "any internal sort"). Run lengths are exactly the memory
// budget — half of what replacement selection achieves on random input —
// but no heap is touched: each element costs a few passes of a
// cache-friendly array sort instead of a pointer-free but branch-heavy
// heap walk, which makes it the cheapest generator per element. The
// adaptive policy drops to it when run lengths have degenerated to the
// memory size anyway, where the heap buys nothing.
type QuickStepper[T any] struct {
	em     *runio.Emitter[T]
	br     stream.BatchReader[T]
	buf    []T
	fill   int // elements of buf loaded before the first run: a probe's prefix
	memory int
	eof    bool
	sort   *codec.KeySorter[T]
}

// NewQuickStepper returns a QuickStepper over src with a load buffer of
// `memory` elements, writing through em and ordering by em.Less. When src is
// a stream.Prepended whose head is at most one load in a buffer of at least
// one — Auto's probe prefix — the head is loaded already: that buffer becomes
// the load buffer, and the first run sorts the head in place.
func NewQuickStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], memory int) (*QuickStepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	s := &QuickStepper[T]{em: em, br: src, memory: memory, sort: em.Scratch.Sorter(em.KeyCodec, em.Less)}
	if p, ok := src.(*stream.Prepended[T]); ok {
		if head, tail := p.Split(); len(head) <= memory && cap(head) >= memory {
			s.buf, s.fill, s.br = head[:memory], len(head), tail
		}
	}
	return s, nil
}

// NextRun loads, sorts and stores one memory-sized run; ok is false at end
// of input.
func (s *QuickStepper[T]) NextRun() (runio.Run, bool, error) {
	if s.buf == nil {
		s.buf = s.em.Scratch.Buffer(s.memory)[:s.memory]
	}
	fill := s.fill
	s.fill = 0
	for fill < s.memory && !s.eof {
		n, err := s.br.ReadBatch(s.buf[fill:s.memory])
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			return runio.Run{}, false, err
		}
		fill += n
	}
	if fill == 0 {
		// The input is spent: the load buffer goes back for the next sort.
		s.em.Scratch.Put(s.buf)
		s.buf = nil
		return runio.Run{}, false, nil
	}
	buf := s.buf[:fill]
	s.sort.Sort(buf)
	w, err := s.em.Stream("quick", false)
	if err != nil {
		return runio.Run{}, false, err
	}
	if err := stream.WriteAll[T](w, buf); err != nil {
		return runio.Run{}, false, err
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	return runio.SingleRun(w.Segment()), true, nil
}
