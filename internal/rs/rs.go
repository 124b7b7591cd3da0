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
// Presorted stretches skip the tree: a FIFO tail of current-run records,
// each at or after every current-run record in the tree and parked in a
// leaf the tree vacated, streams them in O(1) a record (DESIGN.md §7,
// "Presorted stretches"). Only comparator-equal records may leave in
// another order than the tree's.
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
	pfx func(T) uint64
	// less is em.Less in the direction of the run the next NextRun emits,
	// its arguments swapped on a down-run; rev is the other way round.
	less, rev   func(a, b T) bool
	alternating bool // flip direction at every run boundary
	down        bool // direction of the run the next NextRun emits
	loaded      bool // the tree holds its first memory-load
	currentRun  int

	// The tail's leaves, oldest first, are ring[head:head+size] (mod
	// len(ring)), allocated on first use; last is its newest record. While
	// the tail is empty, prev is the last record that could have started it,
	// streak how many such records in a row were in order, and hi, once a
	// scan has found it (Run −1 until then), bounds the tree's current-run
	// records. nextHeld: a next-run record is in the tree. off counts the
	// records to pass before the tail may start again, window what off was
	// set to at the last hand-back (0 once the tail streams).
	ring                []int32
	head, size          int
	last, prev, hi      heap.Item[T]
	nextHeld            bool
	streak, off, window int
}

// inOrder is how many records in a row must be in order before the tail
// looks for its bound: one stretch in 40,320 on random input.
const inOrder = 8

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
	s := &Stepper[T]{
		em: em,
		// All input flows through a batched fetch buffer: one ReadBatch per
		// FetchLen elements instead of an interface call per record.
		in:          stream.NewFetcher(src, stream.FetchLen(memory)),
		t:           heap.NewTree(memory, alternating && down, em.Less),
		pfx:         em.PrefixFunc(),
		less:        em.Less,
		rev:         func(a, b T) bool { return em.Less(b, a) },
		alternating: alternating,
		hi:          heap.Item[T]{Run: -1},
	}
	if alternating && down {
		s.turn()
	}
	return s, nil
}

// turn reverses the direction of the runs to come.
func (s *Stepper[T]) turn() {
	s.down = !s.down
	s.less, s.rev = s.rev, s.less
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

// before reports whether a leaves strictly before b in a run of the
// stepper's direction: a orders below b in an up-run, above it in a
// down-run. The decision rides the cached prefixes: the integer compare
// decides strictly ordered pairs and only prefix ties — all pairs, on the
// comparator-only path — consult the comparator: the same decision either
// way. The direction is an XOR of the key compare and the comparator
// field, not a swap of a and b, which keeps before within the inliner's
// budget: it inlines into the run loop.
func (s *Stepper[T]) before(a, b heap.Item[T]) bool {
	if a.Key != b.Key {
		return (a.Key < b.Key) != s.down
	}
	return s.less(a.Rec, b.Rec)
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
	// the winner's tag advances (§3.3) and the tail is empty.
	s.currentRun = t.Top().Run
	role := "rs"
	if s.alternating {
		role = "alt"
	}
	w, err := s.em.Stream(role, s.down)
	if err != nil {
		return runio.Run{}, false, err
	}
	for {
		// Write the tree's winner while it belongs to the current run,
		// then the tail's head. leaf is the tail leaf the write frees, or
		// -1 when the write frees the winner's.
		var out heap.Item[T]
		leaf := -1
		if t.Len() > 0 {
			out = t.Top()
		}
		if t.Len() == 0 || out.Run != s.currentRun {
			if s.size == 0 {
				break
			}
			if k, err := s.stream(w); k > 0 || err != nil {
				if err != nil {
					return runio.Run{}, false, err
				}
				continue
			}
			leaf = s.pop()
			out = s.item(*t.Parked(leaf))
		}
		if err := w.Write(out.Rec); err != nil {
			return runio.Run{}, false, err
		}
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, false, err
		}
		if !ok {
			if leaf < 0 {
				t.Vacate()
			}
			continue
		}
		// The record is tagged with the run it can still join: the current
		// one, unless it falls on the wrong side of out, below it in an
		// up-run, above it in a down-run. It goes into the tree — in the
		// winner's leaf, or in the tail leaf the write freed — unless place
		// puts it in the tail. The common cases call nothing but the tree.
		in := s.item(rec)
		switch {
		case s.before(in, out):
			in.Run++
			s.nextHeld = true
		case s.size == 0 && s.nextHeld:
		case s.size == 0 && s.off > 0:
			s.off--
		case s.place(in, leaf):
			continue
		}
		if leaf < 0 {
			t.Replace(in)
		} else {
			t.Put(leaf, in)
		}
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	if s.alternating {
		// Flip: at a run boundary every record held carries the next run's
		// tag, so the tree goes on in the opposite order after a re-key.
		s.turn()
		t.Flip()
	}
	s.hi.Run, s.streak, s.nextHeld = -1, 0, false
	return runio.SingleRun(w.Segment()), true, nil
}

// append parks in at the tail's end, in the winner's leaf or in tail leaf
// leaf.
func (s *Stepper[T]) append(in heap.Item[T], leaf int) {
	if leaf < 0 {
		leaf = s.t.Park(in.Rec)
	} else {
		*s.t.Parked(leaf) = in.Rec
	}
	if s.ring == nil {
		s.ring = make([]int32, s.t.Cap())
	}
	i := s.head + s.size
	if i >= len(s.ring) {
		i -= len(s.ring)
	}
	s.ring[i] = int32(leaf)
	s.size++
	s.last = in
}

// pop takes the tail's oldest leaf off the ring.
func (s *Stepper[T]) pop() int {
	leaf := int(s.ring[s.head])
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.size--
	return leaf
}

// place puts current-run record in at the tail's end, in the winner's leaf
// or in tail leaf leaf, when it is at or past the tail's newest record, and
// reports whether it did. A record inside the tail's range joins it and the
// whole tail goes back to the tree, which then stays off for the next
// window records that could start it: M, doubled at each hand-back until
// the tail streams a batch again. An empty tail starts with a record at or
// past hi, which one scan of the tree finds once inOrder records in a row
// are in order.
func (s *Stepper[T]) place(in heap.Item[T], leaf int) bool {
	if s.size > 0 {
		if !s.before(in, s.last) {
			s.append(in, leaf)
			return true
		}
		if s.before(in, s.item(*s.t.Parked(int(s.ring[s.head])))) {
			return false
		}
		s.append(in, leaf)
		a := s.ring[s.head:min(s.head+s.size, len(s.ring))]
		s.t.Restore(s.item, a, s.ring[:s.size-len(a)])
		s.head, s.size, s.hi.Run, s.streak = 0, 0, -1, 0
		s.window = max(2*s.window, s.t.Cap())
		s.off = s.window
		return true
	}
	if s.streak > 0 && s.before(in, s.prev) {
		s.streak = 0
	}
	s.prev, s.streak = in, s.streak+1
	if s.hi.Run < 0 && s.streak >= inOrder {
		var ok bool
		if s.hi, ok = s.t.Last(); !ok {
			s.hi = in
		}
	}
	if s.hi.Run < 0 || s.before(in, s.hi) {
		return false
	}
	s.append(in, leaf)
	return true
}

// stream is the batch path, taken while the tree holds no current-run
// record: the longest prefix of the fetch batch that continues the tail in
// order, at most the tail's length, trades places with the tail's oldest
// records, which go out in one WriteBatch. It returns how many, zero when
// the batch's first record does not continue the tail.
func (s *Stepper[T]) stream(w runio.StreamWriter[T]) (int, error) {
	batch, err := s.in.Peek()
	k := 0
	for ; k < len(batch) && k < s.size; k++ {
		it := s.item(batch[k])
		if s.before(it, s.last) {
			break
		}
		leaf := s.pop()
		batch[k] = *s.t.Parked(leaf)
		s.append(it, leaf)
	}
	if k == 0 {
		return 0, err
	}
	s.window = 0
	s.in.Skip(k)
	return k, w.WriteBatch(batch[:k])
}
