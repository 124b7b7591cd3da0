// Package rs implements the run-generation baselines the paper compares
// against — replacement selection (Goetz 1963, Algorithm 1 of the thesis)
// and Load-Sort-Store, as memory-sized quicksort batches — together with
// the generator the policy layer (internal/policy) adds beside them:
// alternating up/down runs (Bender et al., "Run Generation Revisited"). All
// generators are generic over the element type: the comparator comes from
// the Emitter they write runs through.
//
// Replacement selection keeps a min-heap of `memory` records. Each step pops
// the smallest current-run record to the output run and replaces it with the
// next input record, which joins the current run if it is not smaller than
// the record just written and is otherwise tagged for the next run. A run
// ends when the heap's top belongs to the next run. On random input the
// expected run length is twice the memory (§3.5); on ascending input a
// single run is produced; on descending input every run has exactly
// `memory` records — the weakness 2WRS (and the alternating generator)
// removes.
//
// Every generator is a Stepper that emits one run per NextRun call and can
// surrender its buffered state through Carry — the contract the adaptive
// policy engine uses to switch generators at run boundaries mid-stream —
// or list it in place through Checkpoint, for durable sorts to snapshot.
// Generate drains the source through the replacement-selection Stepper in
// one call.
package rs

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/runio"
	"repro/internal/stream"
)

// fetchLen sizes the batched input fetch buffer for a generator with the
// given memory budget: large enough to amortise dispatch, small next to the
// budget itself.
func fetchLen(memory int) int {
	n := memory / 8
	if n < 64 {
		n = 64
	}
	if n > stream.DefaultBatchLen {
		n = stream.DefaultBatchLen
	}
	return n
}

// Result summarises a run-generation pass.
type Result struct {
	// Runs lists the generated runs in creation order.
	Runs []runio.Run
	// Records is the total number of input records consumed.
	Records int64
}

// AvgRunLength returns the mean run length in records, 0 for no runs.
func (r Result) AvgRunLength() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	return float64(r.Records) / float64(len(r.Runs))
}

// Stepper runs classic replacement selection one run at a time: each
// NextRun call writes exactly one run through the emitter. Between calls
// the heap holds the records already tagged for the next run, so a caller
// may stop after any run and either continue later or hand the buffered
// state to a different generator via Carry.
type Stepper[T any] struct {
	em *runio.Emitter[T]
	in *stream.Fetcher[T]
	h  *heap.Heap[T]
	// pfx caches normalized-key prefixes into heap items when the emitter
	// carries a KeyCodec; nil on the comparator-only path.
	pfx        func(T) uint64
	currentRun int
	records    int64
}

// NewStepper returns a Stepper generating replacement-selection runs over
// src with a heap of `memory` elements, writing through em and ordering by
// em.Less.
func NewStepper[T any](src stream.Reader[T], em *runio.Emitter[T], memory int) (*Stepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	return &Stepper[T]{
		em: em,
		// All input flows through a batched fetch buffer: one ReadBatch per
		// fetchLen elements instead of an interface call per record.
		in:  stream.NewFetcher(src, fetchLen(memory)),
		h:   heap.New(memory, false, em.Less),
		pfx: em.PrefixFunc(),
	}, nil
}

// Records returns the number of input elements consumed so far.
func (s *Stepper[T]) Records() int64 { return s.records }

// fill tops the heap up from the input (heap.fill in Algorithm 1). After
// the initial fill it is a no-op until Carry empties the heap.
func (s *Stepper[T]) fill() error {
	for !s.h.Full() {
		rec, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		it := heap.Item[T]{Rec: rec, Run: s.currentRun}
		if s.pfx != nil {
			it.Key = s.pfx(rec)
		}
		s.h.Push(it)
		s.records++
	}
	return nil
}

// NextRun writes the next run and returns its manifest; ok is false once
// the input and the heap are both exhausted.
func (s *Stepper[T]) NextRun() (runio.Run, bool, error) {
	if err := s.fill(); err != nil {
		return runio.Run{}, false, err
	}
	if s.h.Len() == 0 {
		return runio.Run{}, false, nil
	}
	// The heap orders by (run, element), so every record of the current run
	// pops before the first record of the next: a run ends exactly when the
	// top's tag advances (§3.3).
	s.currentRun = s.h.Peek().Run
	less := s.em.Less
	name, w, err := s.em.Forward("rs")
	if err != nil {
		return runio.Run{}, false, err
	}
	for s.h.Len() > 0 && s.h.Peek().Run == s.currentRun {
		it := s.h.Pop()
		if err := w.Write(it.Rec); err != nil {
			return runio.Run{}, false, err
		}
		// Read the next input record and insert it tagged with the run it
		// can still join.
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, false, err
		}
		if !ok {
			continue
		}
		s.records++
		nit := heap.Item[T]{Rec: rec, Run: s.currentRun}
		if s.pfx != nil {
			// The replacement decision rides the cached prefixes too: the
			// integer compare decides strictly ordered pairs and only prefix
			// ties consult the comparator — the same decision either way.
			nit.Key = s.pfx(rec)
			if nit.Key < it.Key || (nit.Key == it.Key && less(rec, it.Rec)) {
				nit.Run = s.currentRun + 1
			}
		} else if less(rec, it.Rec) {
			nit.Run = s.currentRun + 1
		}
		s.h.Push(nit)
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	return runio.SingleRun(name, w.Count()), true, nil
}

// Carry removes and returns every element the Stepper has buffered — the
// heap contents plus the fetch buffer's read-ahead — leaving it empty. The
// run tags are dropped: a successor generator re-derives run membership
// itself.
func (s *Stepper[T]) Carry() []T {
	out := make([]T, 0, s.h.Len())
	for s.h.Len() > 0 {
		out = append(out, s.h.Pop().Rec)
	}
	return append(out, s.in.Drain()...)
}

// Checkpoint lists, without disturbing the stepper, the records it holds at
// a run boundary — the heap in index order (heap.Export), then the fetch
// read-ahead — and returns their two counts. Unlike Carry it is only
// meaningful right after NextRun returned a run, when every heap item
// carries the same run tag.
func (s *Stepper[T]) Checkpoint(put func(T)) []uint64 { return checkpointHeld(s.h, s.in, put) }

// RestoreStepper rebuilds the Stepper whose Checkpoint listed recs and
// returned state, over src positioned just past the read-ahead: it goes on
// to emit exactly the runs the original would have.
func RestoreStepper[T any](src stream.Reader[T], em *runio.Emitter[T], memory int, recs []T, state []uint64) (*Stepper[T], error) {
	s, err := NewStepper(src, em, memory)
	if err == nil {
		err = restoreHeld(s.h, s.in, s.pfx, recs, state, 2)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// checkpointHeld lists a heap and the read-ahead of its input.
func checkpointHeld[T any](h *heap.Heap[T], in *stream.Fetcher[T], put func(T)) []uint64 {
	h.Export(put)
	ahead := in.Pending()
	for _, v := range ahead {
		put(v)
	}
	return []uint64{uint64(h.Len()), uint64(len(ahead))}
}

// restoreHeld puts a checkpointHeld listing back, rejecting state that is
// not `words` long, counts that do not add up to recs and records that are
// not in heap order.
func restoreHeld[T any](h *heap.Heap[T], in *stream.Fetcher[T], pfx func(T) uint64, recs []T, state []uint64, words int) error {
	n := uint64(len(recs))
	if len(state) != words || state[0] > n || state[1] != n-state[0] {
		return fmt.Errorf("rs: checkpoint state %v does not describe %d records", state, n)
	}
	if err := h.Import(recs[:state[0]], 0, pfx); err != nil {
		return err
	}
	if !in.Preload(recs[state[0]:]) {
		return fmt.Errorf("rs: checkpoint read-ahead of %d records exceeds the fetch batch", state[1])
	}
	return nil
}

// Generate runs replacement selection over src with a heap of `memory`
// elements, writing runs through em and ordering by em.Less.
func Generate[T any](src stream.Reader[T], em *runio.Emitter[T], memory int) (Result, error) {
	s, err := NewStepper(src, em, memory)
	if err != nil {
		return Result{}, err
	}
	var res Result
	for {
		run, ok, err := s.NextRun()
		res.Records = s.Records()
		if err != nil || !ok {
			return res, err
		}
		res.Runs = append(res.Runs, run)
	}
}
