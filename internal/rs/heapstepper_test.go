package rs

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
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

// oracleInput is one input of the oracle tests.
type oracleInput struct {
	name   string
	recs   []record.Record
	random bool // gen.Random, on which the tail must never start
}

// oracleInputs are the inputs the tree stepper is held to the heap loop on:
// every dataset with spread and with densely packed keys (most compares
// tie on the key), and the presorted stretches the tail streams, each also
// mirrored (keys negated), so every trend is met travelling up and down:
// sorted and reverse input with every key four times, a noisy trend whose
// noise exceeds its step — by a little (the tail restarts and falls back
// every few records) and by more than the memory spans (several runs) —
// and a descending staircase of ascending teeth, some shorter and some
// longer than the memory, neighbouring teeth overlapping.
func oracleInputs(n int) []oracleInput {
	var ins []oracleInput
	for _, kind := range gen.Kinds {
		for _, shape := range []struct {
			name string
			cfg  gen.Config
		}{
			{"spread", gen.Config{Kind: kind, N: n, Seed: 5, Noise: 1000}},
			{"dense", gen.Config{Kind: kind, N: n, Seed: 5, Step: 1, Noise: 4, Sections: 200}},
		} {
			ins = append(ins, oracleInput{kind.String() + "/" + shape.name, gen.Generate(shape.cfg), kind == gen.Random})
		}
	}
	keyed := func(name string, key func(i int) int64) {
		up, down := make([]record.Record, n), make([]record.Record, n)
		for i := range up {
			up[i] = record.Record{Key: key(i), Aux: uint64(i)}
			down[i] = record.Record{Key: -key(i), Aux: uint64(i)}
		}
		ins = append(ins, oracleInput{name: name, recs: up}, oracleInput{name: name + "/mirrored", recs: down})
	}
	keyed("sorted-dup", func(i int) int64 { return int64(i / 4) })
	keyed("reverse-dup", func(i int) int64 { return int64((n - i) / 4) })
	for _, noise := range []int64{8, 5000} {
		recs := gen.Generate(gen.Config{Kind: gen.Sorted, N: n, Seed: 9, Step: 1, Noise: noise})
		keyed(fmt.Sprintf("trend-noise%d", noise), func(i int) int64 { return recs[i].Key })
	}
	teeth := make([]int64, 0, n)
	for tooth := 0; len(teeth) < n; tooth++ {
		for j := range []int{150, 450, 900, 60}[tooth%4] {
			teeth = append(teeth, int64(-600*tooth+2*j))
		}
	}
	keyed("staircase", func(i int) int64 { return teeth[i] })
	return ins
}

// stepperModes are the generators the oracle tests drive: classic RS, and
// alternating starting with an up-run and with a down-run.
var stepperModes = []struct {
	name              string
	alternating, down bool
}{{"alternating=false", false, false}, {"alternating=true", true, false}, {"alternating=down", true, true}}

// TestStepperMatchesHeapStepper holds the tree stepper to the heap loop it
// replaced, over every oracle input, for rs and alternating runs (starting
// up and down), keyed and comparator-only: the same number of runs, each
// the same manifest — its length, direction, files, content checksum and
// Concatenable flag — holding the same keys.
// The two may release comparator-equal records in different orders, so a
// run's records are compared as a multiset.
func TestStepperMatchesHeapStepper(t *testing.T) {
	const n, memory = 20000, 300
	for _, in := range oracleInputs(n) {
		recs := in.recs
		for _, mode := range stepperModes {
			for _, keyed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/keyed=%v", in.name, mode.name, keyed)
				t.Run(name, func(t *testing.T) {
					treeFS, heapFS := vfs.NewMemFS(), vfs.NewMemFS()
					treeEm, heapEm := recordEmitter(treeFS, keyed), recordEmitter(heapFS, keyed)
					treeEm.Checksums, heapEm.Checksums = true, true
					tree, err := NewStepper(stream.NewSliceReader(recs), treeEm, memory, mode.alternating, mode.down)
					if err != nil {
						t.Fatal(err)
					}
					got, err := drain(tree.NextRun)
					if err != nil {
						t.Fatal(err)
					}
					want, err := drain(newHeapStepper(stream.NewSliceReader(recs), heapEm, memory, mode.alternating, mode.down).NextRun)
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

// watchedReader serves src one element a read and calls watch before each
// read, so watch sees the stepper between every two records it takes.
type watchedReader struct {
	src   stream.BatchReader[record.Record]
	watch func()
}

func (r *watchedReader) ReadBatch(dst []record.Record) (int, error) {
	r.watch()
	return r.src.ReadBatch(dst[:1])
}

// TestTailRestoresAreAmortised counts the times the tail goes back into the
// tree over every oracle input and mode: after each the tail stays off for
// M records, so there are at most ⌈N/M⌉ + 1 (flips are not restores). On
// random input the tail never starts — its ring is never allocated — and
// on the sorted inputs classic RS streams through it.
func TestTailRestoresAreAmortised(t *testing.T) {
	const n, memory = 20000, 300
	for _, in := range oracleInputs(n) {
		for _, mode := range stepperModes {
			for _, keyed := range []bool{false, true} {
				// A hand-back empties the tail within a run and drops the
				// bound hi, which draining the tail by writes keeps.
				var s *Stepper[record.Record]
				restores, tail, run := 0, false, 0
				src := &watchedReader{src: stream.NewSliceReader(in.recs), watch: func() {
					if s == nil {
						return
					}
					if tail && s.size == 0 && s.hi.Run < 0 && s.currentRun == run {
						restores++
					}
					tail, run = s.size > 0, s.currentRun
				}}
				s, err := NewStepper(src, recordEmitter(vfs.NewMemFS(), keyed), memory, mode.alternating, mode.down)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := drain(s.NextRun); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%s/keyed=%v", in.name, mode.name, keyed)
				if limit := (n+memory-1)/memory + 1; restores > limit {
					t.Errorf("%s: %d restores, want at most %d", name, restores, limit)
				}
				if in.random && s.ring != nil {
					t.Errorf("%s: the tail was used on random input", name)
				}
				if sorted := strings.HasPrefix(in.name, "sorted") && !strings.HasSuffix(in.name, "/mirrored"); sorted && !mode.alternating && s.ring == nil {
					t.Errorf("%s: the tail was never used on sorted input", name)
				}
			}
		}
	}
}
