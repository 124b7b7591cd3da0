package repro

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The contract every entry point into the sorter shares, checked over one
// table of the ten: what a dead context and a failing source turn into, how
// the call's timing is reported, what the rank queries answer on either
// side of the memory budget, and that the spill store is empty afterwards.

const (
	contractM = 128  // the spilling sorters' memory budget
	contractN = 4096 // input size; a power of two, so k/n·n is exact for Quantiles
)

// entryPoint is one way into the sorter in a uniform shape: call runs it
// over src (k is the rank argument of those that take one; dst wraps the
// sink of those that write to one) and returns the call's timing.
type entryPoint struct {
	name string
	// root names the call's root span. Sort and Resume open none of their
	// own: theirs is the driver's "generate".
	root string
	// phases are the phase names of the spilled path, in execution order.
	phases  []string
	durable bool // needs a WithManifest sorter
	sink    bool // writes to a sink
	call    func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, dst Sink[int64]) (time.Duration, []PhaseStat, error)
}

var entryPoints = []entryPoint{
	{name: "Sort", root: "generate", phases: []string{"generate", "merge"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], _ int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.Sort(ctx, src, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "Resume", root: "generate", phases: []string{"generate", "merge"}, sink: true, durable: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], _ int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.Resume(ctx, src, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "Distinct", root: "distinct", phases: []string{"generate", "distinct"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], _ int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.Distinct(ctx, src, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "GroupBy", root: "groupby", phases: []string{"generate", "groupby"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], _ int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.GroupBy(ctx, src, nil, func(acc, v int64) int64 { return acc }, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "TopK", root: "topk", phases: []string{"generate", "select"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.TopK(ctx, src, k, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "BottomK", root: "bottomk", phases: []string{"generate", "select"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			st, err := s.BottomK(ctx, src, k, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "MergeJoin", root: "merge_join", phases: []string{"generate", "join"}, sink: true,
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], _ int, dst Sink[int64]) (time.Duration, []PhaseStat, error) {
			right := newSliceSource(contractInput()[:contractN/2])
			st, err := MergeJoin(ctx, s, src, s, Source[int64](right),
				func(l, r int64) int { return int(min(max(l-r, -1), 1)) }, func(l, _ int64) int64 { return l }, dst)
			return st.Elapsed, st.Phases, err
		}},
	{name: "Select", root: "select", phases: []string{"read", "generate", "select"},
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, _ Sink[int64]) (time.Duration, []PhaseStat, error) {
			_, st, err := s.Select(ctx, src, k)
			return st.Elapsed, st.Phases, err
		}},
	{name: "Quantiles", root: "quantiles", phases: []string{"read", "generate", "select"},
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, _ Sink[int64]) (time.Duration, []PhaseStat, error) {
			_, st, err := s.Quantiles(ctx, src, []float64{float64(k) / contractN})
			return st.Elapsed, st.Phases, err
		}},
	{name: "ApproxSelect", root: "approx_select", phases: []string{"read", "select"},
		call: func(ctx context.Context, s *Sorter[int64], src Source[int64], k int, _ Sink[int64]) (time.Duration, []PhaseStat, error) {
			_, st, err := s.ApproxSelect(ctx, src, k, 0.05)
			return st.Elapsed, st.Phases, err
		}},
}

// contractInput is contractN pseudo-random values with duplicates.
func contractInput() []int64 {
	rng := rand.New(rand.NewSource(22))
	vals := make([]int64, contractN)
	for i := range vals {
		vals[i] = int64(rng.Intn(contractN / 2))
	}
	return vals
}

// contractSorter builds the spilling sorter of one contract case over a
// fresh temp directory, which it returns for the emptiness check.
func contractSorter(t *testing.T, memory int, durable bool, tr *Tracer) (*Sorter[int64], string) {
	t.Helper()
	dir := t.TempDir()
	opts := []Option{WithMemoryRecords(memory), WithTempDir(dir), WithTracer(tr), WithSeed(1)}
	if durable {
		opts = append(opts, WithManifest())
	}
	s, err := New(func(a, b int64) bool { return a < b }, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 0 {
		t.Errorf("spill store not empty afterwards: %v", names)
	}
}

// hookSource serves vals and calls at(i) before serving element i.
type hookSource struct {
	vals []int64
	pos  int
	at   func(i int) error
}

func (h *hookSource) Read() (int64, error) {
	if h.pos >= len(h.vals) {
		return 0, io.EOF
	}
	if err := h.at(h.pos); err != nil {
		return 0, err
	}
	h.pos++
	return h.vals[h.pos-1], nil
}

// cancellingSink cancels the context at its first write and keeps going.
type cancellingSink struct{ cancel context.CancelFunc }

func (c cancellingSink) Write(int64) error { c.cancel(); return nil }

func TestEntryPointContract(t *testing.T) {
	input := contractInput()
	k := contractM + 1 // past the budget: every entry point that can spill does
	for _, ep := range entryPoints {
		t.Run(ep.name+"/phases", func(t *testing.T) {
			s, dir := contractSorter(t, contractM, ep.durable, nil)
			elapsed, phases, err := ep.call(context.Background(), s, newSliceSource(input), k, &discardSink[int64]{})
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			var sum time.Duration
			for _, ph := range phases {
				names = append(names, ph.Name)
				sum += ph.Wall
			}
			if !slices.Equal(names, ep.phases) {
				t.Errorf("phases %v, want %v", names, ep.phases)
			}
			if sum > elapsed || elapsed <= 0 {
				t.Errorf("phases sum to %v, Elapsed is %v", sum, elapsed)
			}
			requireEmptyDir(t, dir)
		})

		t.Run(ep.name+"/cancelled before", func(t *testing.T) {
			s, dir := contractSorter(t, contractM, ep.durable, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, _, err := ep.call(ctx, s, newSliceSource(input), k, &discardSink[int64]{}); err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled itself", err)
			}
			if !ep.durable { // a durable sort keeps its (here: empty) state for Resume
				requireEmptyDir(t, dir)
			}
		})

		t.Run(ep.name+"/cancelled while reading", func(t *testing.T) {
			s, dir := contractSorter(t, contractM, ep.durable, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &hookSource{vals: input, at: func(i int) error {
				if i == contractN/2 {
					cancel()
				}
				return nil
			}}
			if _, _, err := ep.call(ctx, s, src, k, &discardSink[int64]{}); err != context.Canceled {
				t.Errorf("err = %v, want context.Canceled itself", err)
			}
			if src.pos == contractN {
				t.Error("the source was read to its end after the cancellation")
			}
			if !ep.durable {
				requireEmptyDir(t, dir)
			}
		})

		if ep.sink {
			t.Run(ep.name+"/cancelled while writing", func(t *testing.T) {
				s, dir := contractSorter(t, contractM, ep.durable, nil)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// More than one batch of output, so a write follows the cancellation.
				if _, _, err := ep.call(ctx, s, newSliceSource(input), contractN/2, cancellingSink{cancel}); err != context.Canceled {
					t.Errorf("err = %v, want context.Canceled itself", err)
				}
				// The merged stream was open: closing it after the failed
				// copy consumed a plain sort's run files; a durable sort
				// keeps its manifest and runs for Resume.
				if !ep.durable {
					requireEmptyDir(t, dir)
				}
			})
		}

		t.Run(ep.name+"/failing source", func(t *testing.T) {
			tr := NewTracer()
			s, dir := contractSorter(t, contractM, ep.durable, tr)
			src := &hookSource{vals: input, at: func(i int) error {
				if i == contractN/2 {
					return errSourceDied
				}
				return nil
			}}
			if _, _, err := ep.call(context.Background(), s, src, k, &discardSink[int64]{}); !errors.Is(err, errSourceDied) {
				t.Errorf("err = %v, want the source's own error", err)
			}
			roots := 0
			for _, sp := range tr.Spans() {
				if sp.Name != ep.root || sp.Parent != 0 {
					continue
				}
				roots++
				if !slices.ContainsFunc(sp.Attrs, func(a obs.Attr) bool { return a.Key == "error" }) {
					t.Errorf("root span %q ended without an error attribute: %v", sp.Name, sp.Attrs)
				}
			}
			// A join's two sides each open a driver "generate" span; only the
			// left one, whose source fails, is reached.
			if roots != 1 {
				t.Errorf("%d root %q spans recorded, want exactly 1", roots, ep.root)
			}
			if !ep.durable {
				requireEmptyDir(t, dir)
			}
		})
	}
}

// TestRankQueriesMatchSortThenIndex: TopK, BottomK, Select and Quantiles
// equal the sort-then-index oracle on both sides of the memory budget — a
// budget below k (or n) takes the spilled half of the rank query, one above
// it the in-memory half — at the ranks where the halves meet.
func TestRankQueriesMatchSortThenIndex(t *testing.T) {
	input := contractInput()
	sorted := slices.Clone(input)
	slices.Sort(sorted)
	ctx := context.Background()
	for _, memory := range []int{contractM, 2 * contractN} {
		for _, k := range []int{1, contractM, contractM + 1, contractN} {
			s, dir := contractSorter(t, memory, false, nil)
			var top, bottom sliceSink[int64]
			tst, err := s.TopK(ctx, newSliceSource(input), k, &top)
			if err != nil {
				t.Fatal(err)
			}
			bst, err := s.BottomK(ctx, newSliceSource(input), k, &bottom)
			if err != nil {
				t.Fatal(err)
			}
			kth, sst, err := s.Select(ctx, newSliceSource(input), k)
			if err != nil {
				t.Fatal(err)
			}
			qs, qst, err := s.Quantiles(ctx, newSliceSource(input), []float64{float64(k) / contractN})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("M=%d k=%d", memory, k)
			requireEqual(t, label+" TopK", top.vals, sorted[:k])
			requireEqual(t, label+" BottomK", bottom.vals, sorted[contractN-k:])
			requireEqual(t, label+" Select/Quantiles", []int64{kth, qs[0]}, []int64{sorted[k-1], sorted[k-1]})
			// Which half answered: k against the budget for the k-of
			// queries, n against it for the picks.
			if tst.Sorted != (k > memory) || bst.Sorted != (k > memory) || sst.Sorted != (contractN > memory) || qst.Sorted != (contractN > memory) {
				t.Errorf("%s: Sorted = TopK %v, BottomK %v, Select %v, Quantiles %v", label, tst.Sorted, bst.Sorted, sst.Sorted, qst.Sorted)
			}
			requireEmptyDir(t, dir)
		}
	}
}

// TestOneReadProtocolBelowTheBoundary keeps the element-at-a-time read
// protocol from growing back. Read() (T, error) is the shape of a caller's
// source, adapted once by stream.AsBatchReader where it enters the library;
// under internal/ the only non-test types that declare it are the sources a
// caller holds — a slice, a byte stream of records, the synthetic
// generator — and everything else reads batches. The reference HeapMerger,
// which nothing but tests and benchmarks ever merged through, is declared
// beside them and nowhere else.
func TestOneReadProtocolBelowTheBoundary(t *testing.T) {
	var readers, heapMergers []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "HeapMerger" && !isTest {
						heapMergers = append(heapMergers, path)
					}
				}
			case *ast.FuncDecl:
				ft := d.Type
				if isTest || d.Recv == nil || d.Name.Name != "Read" || len(ft.Params.List) != 0 || ft.Results == nil || len(ft.Results.List) != 2 {
					continue
				}
				if id, ok := ft.Results.List[1].Type.(*ast.Ident); !ok || id.Name != "error" {
					continue
				}
				// The receiver's type name, through a pointer and type parameters.
				recv := d.Recv.List[0].Type
				for {
					switch r := recv.(type) {
					case *ast.StarExpr:
						recv = r.X
						continue
					case *ast.IndexExpr:
						recv = r.X
						continue
					case *ast.IndexListExpr:
						recv = r.X
						continue
					}
					break
				}
				readers = append(readers, file.Name.Name+"."+recv.(*ast.Ident).Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(readers)
	if want := []string{"gen.Generator", "record.ByteReader", "stream.SliceReader"}; !slices.Equal(readers, want) {
		t.Errorf("non-test types under internal/ declaring Read() (T, error): %v, want exactly the caller-shaped sources %v — read batches (stream.BatchReader) below the boundary", readers, want)
	}
	if len(heapMergers) != 0 {
		t.Errorf("HeapMerger is declared outside _test.go files, in %v: it is the tests' reference merger, not an engine", heapMergers)
	}
}
