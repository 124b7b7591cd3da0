package rs

import (
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/runio"
	"repro/internal/stream"
)

// QuickStepper is the Load-Sort-Store baseline (§2.1.1) one run at a time,
// as memory-sized sorted batches: fill the memory budget, sort it with the
// standard library's pattern-defeating quicksort — or by radix, where a key
// codec allows (codec.KeySorter) — and store it as one run (the thesis
// sorts with "any internal sort"). Run lengths are exactly the memory budget — half of
// what replacement selection achieves on random input — but no heap is
// touched: each element costs an amortised O(log M) comparison inside a
// cache-friendly array sort instead of a pointer-free but branch-heavy
// heap walk, which makes it the cheapest generator per element. The
// adaptive policy drops to it when run lengths have degenerated to the
// memory size anyway, where the heap buys nothing.
type QuickStepper[T any] struct {
	em     *runio.Emitter[T]
	br     stream.BatchReader[T]
	buf    []T
	memory int
	eof    bool
	sort   *codec.KeySorter[T]
}

// NewQuickStepper returns a QuickStepper over src with a load buffer of
// `memory` elements, writing through em and ordering by em.Less.
func NewQuickStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], memory int) (*QuickStepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	return &QuickStepper[T]{em: em, br: src, memory: memory, sort: codec.NewKeySorter(em.KeyCodec, em.Less)}, nil
}

// NextRun loads, sorts and stores one memory-sized run; ok is false at end
// of input.
func (s *QuickStepper[T]) NextRun() (runio.Run, bool, error) {
	if s.buf == nil {
		s.buf = make([]T, s.memory)
	}
	fill := 0
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
		return runio.Run{}, false, nil
	}
	// The run's file is asked for before the batch is sorted: behind a
	// write-behind its creation then overlaps the sort, which costs about
	// as much.
	w, err := s.em.Stream("quick", false)
	if err != nil {
		return runio.Run{}, false, err
	}
	buf := s.buf[:fill]
	s.sort.Sort(buf)
	if err := stream.WriteAll[T](w, buf); err != nil {
		return runio.Run{}, false, err
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	return runio.SingleRun(w.Segment()), true, nil
}

// Carry returns nil: a QuickStepper holds nothing between runs — every run
// boundary is already a clean cut.
func (s *QuickStepper[T]) Carry() []T { return nil }
