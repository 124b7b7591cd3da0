package rs

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// recordEmitter is a Record emitter on fs with chain files small enough
// that a down-run spans several, keyed or comparator-only.
func recordEmitter(fs vfs.FS, keyed bool) *runio.Emitter[record.Record] {
	em := runio.RecordEmitter(fs, "s")
	em.PageSize, em.PagesPerFile = 256, 4
	if keyed {
		em.KeyCodec = codec.KeyRecord16{}
	}
	return em
}

// runKeys reads a run back ascending and returns its keys.
func runKeys(t *testing.T, fs vfs.FS, run runio.Run) []int64 {
	t.Helper()
	recs, err := readRun(fs, run, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, len(recs))
	for i, r := range recs {
		keys[i] = r.Key
	}
	if !slices.IsSorted(keys) || int64(len(keys)) != run.Records {
		t.Fatalf("run %+v reads back %d keys, sorted = %v", run, len(keys), slices.IsSorted(keys))
	}
	return keys
}

// TestDownRunsMirrorUpRuns holds the one run loop to the property it rests
// on: a down-run is an up-run of the negated input. The alternating stepper
// starting with a down-run over x and the one starting with an up-run over
// −x flip in step, so run for run one travels down where the other travels
// up, and they must cut the input at the same places and hold, read back
// ascending, each other's keys negated — on every distribution, with and
// without cached key prefixes.
func TestDownRunsMirrorUpRuns(t *testing.T) {
	for _, kind := range gen.Kinds {
		for _, keyed := range []bool{false, true} {
			name := fmt.Sprintf("%v/keyed=%v", kind, keyed)
			x := gen.Generate(gen.Config{Kind: kind, N: 4000, Seed: 6, Noise: 50})
			negated := slices.Clone(x)
			for i := range negated {
				negated[i].Key = -negated[i].Key
			}
			runs := func(recs []record.Record, down bool) (keys [][]int64, downRuns int) {
				fs := vfs.NewMemFS()
				s, err := NewStepper(stream.NewSliceReader(recs), recordEmitter(fs, keyed), 100, true, down)
				if err != nil {
					t.Fatal(err)
				}
				for {
					run, ok, err := s.NextRun()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						return keys, downRuns
					}
					if run.Segments[0].Backward {
						downRuns++
					}
					keys = append(keys, runKeys(t, fs, run))
				}
			}
			a, aDown := runs(x, true)
			b, bDown := runs(negated, false)
			if len(a) != len(b) || aDown != (len(a)+1)/2 || bDown != len(b)/2 {
				t.Fatalf("%s: %d runs (%d down) over x, %d runs (%d down) over -x", name, len(a), aDown, len(b), bDown)
			}
			for i := range a {
				mirror := slices.Clone(b[i])
				slices.Reverse(mirror)
				for j := range mirror {
					mirror[j] = -mirror[j]
				}
				if !slices.Equal(a[i], mirror) {
					t.Fatalf("%s: run %d holds %d keys over x and %d over -x, or not the same ones negated", name, i, len(a[i]), len(b[i]))
				}
			}
		}
	}
}
