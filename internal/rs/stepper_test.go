package rs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/runio"
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
				s, err := NewStepper(record.NewSliceReader(recs), recordEmitter(fs, keyed), 100, true, down)
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

// cutReader counts the records handed out, so a test can cut the input
// where a checkpointed stepper stopped reading it.
type cutReader struct {
	recs []record.Record
	pos  int
}

func (r *cutReader) ReadBatch(dst []record.Record) (int, error) {
	if r.pos == len(r.recs) {
		return 0, io.EOF
	}
	n := copy(dst, r.recs[r.pos:])
	r.pos += n
	return n, nil
}

// TestCheckpointRestoreExactState is internal/core's test of the same name
// for the heap stepper in both modes, alternating from either direction:
// at every run boundary a second stepper is restored from the checkpoint
// over the rest of the input and must stand exactly where the first does —
// the same listing, the same state words in the mode's shape — and write
// the run the first goes on to write, file for file and byte for byte, so
// restores before up-runs and before down-runs are both covered.
func TestCheckpointRestoreExactState(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 3000, Seed: 5, Noise: 40})
	for _, mode := range []struct{ alternating, down bool }{{false, false}, {true, false}, {true, true}} {
		for _, keyed := range []bool{false, true} {
			name := fmt.Sprintf("alternating=%v/down=%v/keyed=%v", mode.alternating, mode.down, keyed)
			words := 2
			if mode.alternating {
				words = 3
			}
			src, fsA := &cutReader{recs: recs}, vfs.NewMemFS()
			emA := recordEmitter(fsA, keyed)
			s, err := NewStepper[record.Record](src, emA, 120, mode.alternating, mode.down)
			if err != nil {
				t.Fatal(err)
			}
			list := func(s *Stepper[record.Record]) ([]record.Record, []uint64) {
				var held []record.Record
				state := s.Checkpoint(func(r record.Record) { held = append(held, r) })
				return held, state
			}
			files := func(fs vfs.FS, run runio.Run) (out [][]byte) {
				run.Segments[0].EachFile(func(name string, _ int) {
					f, err := fs.Open(name)
					if err != nil {
						t.Fatal(err)
					}
					size, _ := f.Size()
					data := make([]byte, size)
					if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
						t.Fatal(err)
					}
					f.Close()
					out = append(out, append([]byte(name+"\x00"), data...))
				})
				return out
			}
			// next is what the stepper restored at the previous boundary wrote
			// as its following run; the original must now write the same.
			var next [][]byte
			downRuns := 0
			for boundary := 1; ; boundary++ {
				run, ok, err := s.NextRun()
				if err != nil {
					t.Fatal(err)
				}
				if boundary > 1 && (ok != (next != nil) || ok && !slices.EqualFunc(files(fsA, run), next, bytes.Equal)) {
					t.Fatalf("%s: the stepper restored at boundary %d wrote a different next run than the original", name, boundary-1)
				}
				if !ok {
					break
				}
				if run.Segments[0].Backward {
					downRuns++
				}
				held, state := list(s)
				if len(state) != words {
					t.Fatalf("%s boundary %d: checkpoint state %v, want %d words", name, boundary, state, words)
				}
				fsB := vfs.NewMemFS()
				emB := recordEmitter(fsB, keyed)
				emB.Namer.SetSeq(emA.Namer.Seq())
				r, err := RestoreStepper[record.Record](record.NewSliceReader(recs[src.pos:]), emB, 120, mode.alternating, held, state)
				if err != nil {
					t.Fatalf("%s boundary %d: RestoreStepper: %v", name, boundary, err)
				}
				if held2, state2 := list(r); !slices.Equal(held, held2) || !slices.Equal(state, state2) {
					t.Fatalf("%s boundary %d: restored stepper stands elsewhere:\n state %v\n  from %v", name, boundary, state2, state)
				}
				next = nil
				if run, ok, err := r.NextRun(); err != nil {
					t.Fatal(err)
				} else if ok {
					next = files(fsB, run)
				}
			}
			if mode.alternating == (downRuns == 0) {
				t.Fatalf("%s: %d down-runs", name, downRuns)
			}
		}
	}
}
