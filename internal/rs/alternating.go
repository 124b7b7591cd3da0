package rs

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/runio"
	"repro/internal/stream"
)

// AltStepper generates runs of alternating direction, the strategy of
// Bender, McCauley, McGregor, Singh and Vu ("Run Generation Revisited"):
// up-runs work exactly like classic replacement selection, down-runs run
// the same recurrence through a max-heap — each step pops the largest
// current-run record and admits a replacement when it does not exceed the
// record just written — and are stored in the Appendix A backward format,
// so the merge phase reads every run strictly forward in ascending order
// either way.
//
// A descending trend is what classic RS fragments into memory-sized runs;
// a down-run absorbs it whole. Alternating the direction bounds the damage
// of either monotone trend: whichever way the input drifts, every other
// run travels with it. The stepper flips direction at each run boundary,
// re-heaping the records already tagged for the next run under the
// opposite order; the two heaps share their lifetime with the stepper, so
// steady-state memory is one extra arena over classic RS (documented in
// DESIGN.md §9's cost model).
type AltStepper[T any] struct {
	em *runio.Emitter[T]
	in *stream.Fetcher[T]
	up *heap.Heap[T] // min-heap, feeds ascending runs
	dn *heap.Heap[T] // max-heap, feeds descending runs
	// pfx caches normalized-key prefixes into heap items when the emitter
	// carries a KeyCodec; nil on the comparator-only path.
	pfx     func(T) uint64
	down    bool // direction of the run the next NextRun emits
	memory  int
	current int
}

// NewAltStepper returns an AltStepper over src with `memory` elements of
// heap, writing through em and ordering by em.Less. startDown selects the
// direction of the first run: a caller that knows the input leads with a
// descending trend starts with a down-run so the trend lands in run one.
func NewAltStepper[T any](src stream.Reader[T], em *runio.Emitter[T], memory int, startDown bool) (*AltStepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	less := em.Less
	return &AltStepper[T]{
		em:     em,
		in:     stream.NewFetcher(src, fetchLen(memory)),
		up:     heap.New(memory, false, less),
		dn:     heap.New(memory, true, less),
		pfx:    em.PrefixFunc(),
		down:   startDown,
		memory: memory,
	}, nil
}

// active returns the heap of the current direction.
func (s *AltStepper[T]) active() *heap.Heap[T] {
	if s.down {
		return s.dn
	}
	return s.up
}

// fill tops the active heap up from the input.
func (s *AltStepper[T]) fill() error {
	h := s.active()
	for !h.Full() {
		rec, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		it := heap.Item[T]{Rec: rec, Run: s.current}
		if s.pfx != nil {
			it.Key = s.pfx(rec)
		}
		h.Push(it)
	}
	return nil
}

// NextRun writes the next run — ascending or descending per the alternation
// — and returns its manifest; ok is false once input and heaps are drained.
func (s *AltStepper[T]) NextRun() (runio.Run, bool, error) {
	if err := s.fill(); err != nil {
		return runio.Run{}, false, err
	}
	h := s.active()
	if h.Len() == 0 {
		return runio.Run{}, false, nil
	}
	s.current = h.Peek().Run
	var run runio.Run
	var err error
	if s.down {
		run, err = s.downRun(h)
	} else {
		run, err = s.upRun(h)
	}
	if err != nil {
		return runio.Run{}, false, err
	}
	s.flip()
	return run, true, nil
}

// upRun is one ascending replacement-selection run out of the min-heap.
func (s *AltStepper[T]) upRun(h *heap.Heap[T]) (runio.Run, error) {
	less := s.em.Less
	name, w, err := s.em.Forward("alt")
	if err != nil {
		return runio.Run{}, err
	}
	for h.Len() > 0 && h.Peek().Run == s.current {
		it := h.Pop()
		if err := w.Write(it.Rec); err != nil {
			return runio.Run{}, err
		}
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, err
		}
		if !ok {
			continue
		}
		nit := heap.Item[T]{Rec: rec, Run: s.current}
		if s.pfx != nil {
			nit.Key = s.pfx(rec)
			if nit.Key < it.Key || (nit.Key == it.Key && less(rec, it.Rec)) {
				nit.Run = s.current + 1
			}
		} else if less(rec, it.Rec) {
			nit.Run = s.current + 1
		}
		h.Push(nit)
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, err
	}
	return runio.SingleRun(name, w.Count()), nil
}

// downRun is the mirrored recurrence: pop the largest, admit replacements
// that do not exceed it, store the descending stream backward so it reads
// ascending.
func (s *AltStepper[T]) downRun(h *heap.Heap[T]) (runio.Run, error) {
	less := s.em.Less
	name, w, err := s.em.Backward("alt")
	if err != nil {
		return runio.Run{}, err
	}
	for h.Len() > 0 && h.Peek().Run == s.current {
		it := h.Pop()
		if err := w.Write(it.Rec); err != nil {
			return runio.Run{}, err
		}
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, err
		}
		if !ok {
			continue
		}
		nit := heap.Item[T]{Rec: rec, Run: s.current}
		if s.pfx != nil {
			// Mirrored decision: a replacement exceeding the record just
			// written is tagged for the next run.
			nit.Key = s.pfx(rec)
			if nit.Key > it.Key || (nit.Key == it.Key && less(it.Rec, rec)) {
				nit.Run = s.current + 1
			}
		} else if less(it.Rec, rec) {
			nit.Run = s.current + 1
		}
		h.Push(nit)
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, err
	}
	seg := runio.Segment{Name: name, Records: w.Count(), Backward: true, Files: w.Files()}
	return runio.Run{Segments: []runio.Segment{seg}, Records: w.Count(), Concatenable: true}, nil
}

// flip moves the records tagged for the next run into the heap of the
// opposite direction. At a run boundary every remaining item carries the
// next run's tag, so the transfer is a straight drain-and-push.
func (s *AltStepper[T]) flip() {
	from := s.active()
	s.down = !s.down
	to := s.active()
	for from.Len() > 0 {
		to.Push(from.Pop())
	}
}

// Checkpoint lists the records held at a run boundary — the heap of the
// next run's direction (flip has emptied the other), then the read-ahead —
// and returns their counts plus that direction; see Stepper.Checkpoint.
func (s *AltStepper[T]) Checkpoint(put func(T)) []uint64 {
	state := checkpointHeld(s.active(), s.in, put)
	if s.down {
		return append(state, 1)
	}
	return append(state, 0)
}

// RestoreAltStepper rebuilds the AltStepper whose Checkpoint listed recs
// and returned state; see RestoreStepper.
func RestoreAltStepper[T any](src stream.Reader[T], em *runio.Emitter[T], memory int, recs []T, state []uint64) (*AltStepper[T], error) {
	s, err := NewAltStepper(src, em, memory, len(state) == 3 && state[2] != 0)
	if err == nil {
		err = restoreHeld(s.active(), s.in, s.pfx, recs, state, 3)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Carry removes and returns every buffered element — both heaps plus the
// fetch buffer's read-ahead — leaving the stepper empty.
func (s *AltStepper[T]) Carry() []T {
	out := make([]T, 0, s.up.Len()+s.dn.Len())
	for s.up.Len() > 0 {
		out = append(out, s.up.Pop().Rec)
	}
	for s.dn.Len() > 0 {
		out = append(out, s.dn.Pop().Rec)
	}
	return append(out, s.in.Drain()...)
}
