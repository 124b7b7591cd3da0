package rs

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/heap"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// heapStepper is replacement selection through run-tagged binary heaps, the
// way Stepper ran it before it moved onto the tree of losers: a min-heap
// for up-runs and, when alternating, a max-heap for down-runs, the one
// drained into the other at every run boundary. It lives beside the tests
// because that is all that uses it: TestStepperMatchesHeapStepper holds the
// tree stepper to it.
type heapStepper[T any] struct {
	em          *runio.Emitter[T]
	in          *stream.Fetcher[T]
	up, dn      *heap.Heap[T]
	pfx         func(T) uint64
	alternating bool
	down        bool
	currentRun  int
}

func newHeapStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], memory int, alternating, down bool) *heapStepper[T] {
	s := &heapStepper[T]{
		em:          em,
		in:          stream.NewFetcher(src, stream.FetchLen(memory)),
		up:          heap.New(memory, false, em.Less),
		pfx:         em.PrefixFunc(),
		alternating: alternating,
		down:        alternating && down,
	}
	if alternating {
		s.dn = heap.New(memory, true, em.Less)
	}
	return s
}

func (s *heapStepper[T]) active() *heap.Heap[T] {
	if s.down {
		return s.dn
	}
	return s.up
}

func (s *heapStepper[T]) item(rec T) (it heap.Item[T]) {
	it.Rec, it.Run = rec, s.currentRun
	if s.pfx != nil {
		it.Key = s.pfx(rec)
	}
	return it
}

func (s *heapStepper[T]) before(a, b heap.Item[T]) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return s.em.Less(a.Rec, b.Rec)
}

func (s *heapStepper[T]) NextRun() (runio.Run, bool, error) {
	for h := s.active(); !h.Full(); {
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, false, err
		}
		if !ok {
			break
		}
		h.Push(s.item(rec))
	}
	h := s.active()
	if h.Len() == 0 {
		return runio.Run{}, false, nil
	}
	s.currentRun = h.Peek().Run
	role := "rs"
	if s.alternating {
		role = "alt"
	}
	w, err := s.em.Stream(role, s.down)
	if err != nil {
		return runio.Run{}, false, err
	}
	for h.Len() > 0 && h.Peek().Run == s.currentRun {
		out := h.Pop()
		if err := w.Write(out.Rec); err != nil {
			return runio.Run{}, false, err
		}
		rec, ok, err := s.in.Next()
		if err != nil {
			return runio.Run{}, false, err
		}
		if !ok {
			continue
		}
		in := s.item(rec)
		if s.down && s.before(out, in) || !s.down && s.before(in, out) {
			in.Run++
		}
		h.Push(in)
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	if s.alternating {
		s.down = !s.down
		for to := s.active(); h.Len() > 0; {
			to.Push(h.Pop())
		}
	}
	return runio.SingleRun(w.Segment()), true, nil
}

// TestStepperMatchesHeapStepper holds the tree stepper to the heap loop it
// replaced, over every dataset with spread and with densely packed keys
// (most compares tie on the key), for rs and alternating runs, keyed and
// comparator-only: the same number of runs, each the same manifest — its
// length, direction, files, content checksum and Concatenable flag —
// holding the same keys.
// The two may release comparator-equal records in different orders, so a
// run's records are compared as a multiset.
func TestStepperMatchesHeapStepper(t *testing.T) {
	const n, memory = 20000, 300
	for _, kind := range gen.Kinds {
		for _, shape := range []struct {
			name string
			cfg  gen.Config
		}{
			{"spread", gen.Config{Kind: kind, N: n, Seed: 5, Noise: 1000}},
			{"dense", gen.Config{Kind: kind, N: n, Seed: 5, Step: 1, Noise: 4, Sections: 200}},
		} {
			recs := gen.Generate(shape.cfg)
			for _, alternating := range []bool{false, true} {
				for _, keyed := range []bool{false, true} {
					name := fmt.Sprintf("%v/%s/alternating=%v/keyed=%v", kind, shape.name, alternating, keyed)
					t.Run(name, func(t *testing.T) {
						treeFS, heapFS := vfs.NewMemFS(), vfs.NewMemFS()
						treeEm, heapEm := recordEmitter(treeFS, keyed), recordEmitter(heapFS, keyed)
						treeEm.Checksums, heapEm.Checksums = true, true
						tree, err := NewStepper(stream.NewSliceReader(recs), treeEm, memory, alternating, false)
						if err != nil {
							t.Fatal(err)
						}
						got, err := drain(tree.NextRun)
						if err != nil {
							t.Fatal(err)
						}
						want, err := drain(newHeapStepper(stream.NewSliceReader(recs), heapEm, memory, alternating, false).NextRun)
						if err != nil {
							t.Fatal(err)
						}
						if len(got.Runs) != len(want.Runs) || got.Records != want.Records {
							t.Fatalf("tree wrote %d runs of %d records, heap %d of %d", len(got.Runs), got.Records, len(want.Runs), want.Records)
						}
						for i := range got.Runs {
							if !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
								t.Fatalf("run %d: tree manifest %+v, heap %+v", i, got.Runs[i], want.Runs[i])
							}
							if !slices.Equal(runKeys(t, treeFS, got.Runs[i]), runKeys(t, heapFS, want.Runs[i])) {
								t.Fatalf("run %d: the tree's keys differ from the heap's", i)
							}
							a, errA := readRun(treeFS, got.Runs[i], 1024)
							b, errB := readRun(heapFS, want.Runs[i], 1024)
							if errA != nil || errB != nil || !record.NewMultiset(a).Equal(record.NewMultiset(b)) {
								t.Fatalf("run %d: the tree's records differ from the heap's (%v, %v)", i, errA, errB)
							}
						}
					})
				}
			}
		}
	}
}
