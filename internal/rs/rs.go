// Package rs implements the run-generation baselines the paper compares
// against — replacement selection (Goetz 1963, Algorithm 1 of the thesis)
// and Load-Sort-Store, as memory-sized quicksort batches — together with
// the generator the policy layer (internal/policy) adds beside them:
// alternating up/down runs (Bender et al., "Run Generation Revisited"). All
// generators are generic over the element type: the comparator comes from
// the Emitter they write runs through.
//
// Replacement selection keeps `memory` records in a tree of losers
// (heap.Tree). Each step writes the smallest current-run record to the
// output run and replaces it with the next input record, which joins the
// current run if it is not smaller than the record just written and is
// otherwise tagged for the next run. A run ends when the tree's winner
// belongs to the next run. On random input the expected run length is
// twice the memory (§3.5); on ascending input a single run is produced; on
// descending input every run has exactly `memory` records — the weakness
// 2WRS (and the alternating generator) removes.
//
// Two types generate runs here. Stepper is replacement selection through a
// tree in either direction: classic RS is the Stepper that never changes
// direction, the alternating generator the one that flips at every run
// boundary. QuickStepper is Load-Sort-Store. Both emit one run per NextRun
// call; the policy layer (policy.Drive) is the loop that steps them.
package rs

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Stepper runs replacement selection through a run-tagged tree of losers
// one run at a time, in either direction: each NextRun call writes exactly
// one run through the emitter. An up-run is classic replacement selection —
// take the smallest current-run record, admit a replacement that is not
// smaller than the record just written — and a down-run is the same
// recurrence mirrored through a max-tree, stored in the Appendix A backward
// format, so the merge phase reads every run strictly forward in ascending
// order either way.
//
// Direction is a value, and when it changes is the stepper's only mode. The
// classic generator ("rs") never flips it. The alternating one ("alt") flips
// it at every run boundary, the strategy of Bender, McCauley, McGregor,
// Singh and Vu ("Run Generation Revisited"): a descending trend is what
// classic RS fragments into memory-sized runs, and a down-run absorbs it
// whole, so whichever way the input drifts every other run travels with it.
// A flip re-keys the one arena in place — at a run boundary every record
// held is tagged for the next run — and replays the tournament in O(M), so
// alternating holds no more memory than classic RS (DESIGN.md §9's cost
// model).
//
// Between calls the tree holds the records already tagged for the next run,
// so a caller may stop after any run and continue later.
type Stepper[T any] struct {
	em *runio.Emitter[T]
	in *stream.Fetcher[T]
	t  *heap.Tree[T] // a min-tree on up-runs, a max-tree on down-runs
	// pfx caches normalized-key prefixes into tree items when the emitter
	// carries a KeyCodec; nil on the comparator-only path, where every cached
	// key is zero.
	pfx         func(T) uint64
	alternating bool // flip direction at every run boundary
	down        bool // direction of the run the next NextRun emits
	loaded      bool // the tree holds its first memory-load
	currentRun  int
}

// NewStepper returns a Stepper over src with a tree of `memory` elements,
// writing through em and ordering by em.Less. alternating selects the
// generator that flips direction at each run boundary, and down the
// direction of its first run: a caller that knows the input leads with a
// descending trend starts with a down-run so the trend lands in run one.
// Without alternating every run is an up-run.
func NewStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], memory int, alternating, down bool) (*Stepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	down = alternating && down
	return &Stepper[T]{
		em: em,
		// All input flows through a batched fetch buffer: one ReadBatch per
		// FetchLen elements instead of an interface call per record.
		in:          stream.NewFetcher(src, stream.FetchLen(memory)),
		t:           heap.NewTree(memory, down, em.Less),
		pfx:         em.PrefixFunc(),
		alternating: alternating,
		down:        down,
	}, nil
}

// item tags an input record for the current run, with its cached key
// prefix where there is one.
func (s *Stepper[T]) item(rec T) (it heap.Item[T]) {
	it.Rec, it.Run = rec, s.currentRun
	if s.pfx != nil {
		it.Key = s.pfx(rec)
	}
	return it
}

// fill loads the tree from the input and plays its first tournament
// (heap.fill in Algorithm 1). It runs once: after it every record written
// is replaced from the input while the input lasts.
func (s *Stepper[T]) fill() error {
	if s.loaded {
		return nil
	}
	for s.t.Len() < s.t.Cap() {
		rec, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.t.Load(s.item(rec))
	}
	s.t.Build()
	s.loaded = true
	return nil
}

// before reports whether a orders strictly before b. The decision rides the
// cached prefixes: the integer compare decides strictly ordered pairs and
// only prefix ties — all pairs, on the comparator-only path — consult the
// comparator: the same decision either way.
func (s *Stepper[T]) before(a, b heap.Item[T]) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return s.em.Less(a.Rec, b.Rec)
}

// NextRun writes the next run — ascending or descending per the stepper's
// direction — and returns its manifest; ok is false once the input and the
// tree are both exhausted.
func (s *Stepper[T]) NextRun() (runio.Run, bool, error) {
	if err := s.fill(); err != nil {
		return runio.Run{}, false, err
	}
	t := s.t
	if t.Len() == 0 {
		return runio.Run{}, false, nil
	}
	// The tree orders by (run, element), so every record of the current run
	// leaves before the first record of the next: a run ends exactly when
	// the winner's tag advances (§3.3).
	s.currentRun = t.Top().Run
	role := "rs"
	if s.alternating {
		role = "alt"
	}
	w, err := s.em.Stream(role, s.down)
	if err != nil {
		return runio.Run{}, false, err
	}
	for t.Len() > 0 {
		out := t.Top()
		if out.Run != s.currentRun {
			break
		}
		if err := w.Write(out.Rec); err != nil {
			return runio.Run{}, false, err
		}
		// Read the next input record and put it in the written record's
		// place, tagged with the run it can still join: the current one,
		// unless it falls on the wrong side of the record just written —
		// below it in an up-run, above it in a down-run.
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, false, err
		}
		if !ok {
			t.Vacate()
			continue
		}
		in := s.item(rec)
		if s.down && s.before(out, in) || !s.down && s.before(in, out) {
			in.Run++
		}
		t.Replace(in)
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	if s.alternating {
		// Flip: at a run boundary every record held carries the next run's
		// tag, so the tree goes on in the opposite order after a re-key.
		s.down = !s.down
		t.Flip()
	}
	return runio.SingleRun(w.Segment()), true, nil
}
