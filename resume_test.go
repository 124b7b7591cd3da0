package repro

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// dyingSource serves records but fails once pos reaches dieAt, simulating
// an input that breaks mid-sort (and with it, a sort that must be resumed).
type dyingSource struct {
	recs  []Record
	pos   int
	dieAt int
}

var errSourceDied = errors.New("repro_test: source died")

func (d *dyingSource) Read() (Record, error) {
	if d.pos >= len(d.recs) {
		return Record{}, io.EOF
	}
	if d.pos >= d.dieAt {
		return Record{}, errSourceDied
	}
	r := d.recs[d.pos]
	d.pos++
	return r, nil
}

func shuffledRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: int64(rng.Intn(n / 2)), Aux: uint64(i)}
	}
	return recs
}

// TestSorterResume is the public happy path: a durable Sort dies on its
// source, Resume finishes the job from the committed runs, and the result
// matches an uninterrupted sort exactly.
func TestSorterResume(t *testing.T) {
	recs := shuffledRecords(4000, 1)
	mk := func() (*Sorter[Record], error) {
		return New(func(a, b Record) bool { return a.Key < b.Key },
			WithMemoryRecords(256),
			WithPolicy("2wrs"),
			WithManifest())
	}
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := func() ([]Record, Stats, error) {
		clean, err := mk()
		if err != nil {
			return nil, Stats{}, err
		}
		return clean.SortSlice(context.Background(), recs)
	}()
	if err != nil {
		t.Fatal(err)
	}

	var out sliceSink[Record]
	if _, err := s.Sort(context.Background(), &dyingSource{recs: recs, dieAt: 3000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v, want errSourceDied", err)
	}

	out.vals = nil
	stats, err := s.Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if stats.RunsRecovered == 0 {
		t.Error("Resume regenerated everything: RunsRecovered = 0")
	}
	if len(out.vals) != len(want) {
		t.Fatalf("resumed %d records, want %d", len(out.vals), len(want))
	}
	for i := range want {
		if out.vals[i] != want[i] {
			t.Fatalf("resumed output differs at %d: %v != %v", i, out.vals[i], want[i])
		}
	}
}

// TestSorterResumeAcrossProcessBoundary drives resume through a real temp
// directory — the state a killed process leaves on disk — with a fresh
// Sorter standing in for the restarted process.
func TestSorterResumeAcrossProcessBoundary(t *testing.T) {
	dir := t.TempDir()
	recs := shuffledRecords(4000, 2)
	mk := func() *Sorter[Record] {
		s, err := New(func(a, b Record) bool { return a.Key < b.Key },
			WithMemoryRecords(256),
			WithPolicy("2wrs"),
			WithTempDir(dir),
			WithManifest())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var out sliceSink[Record]
	if _, err := mk().Sort(context.Background(), &dyingSource{recs: recs, dieAt: 3000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.manifest"))
	if err != nil || len(names) != 1 {
		t.Fatalf("manifest files on disk: %v, %v", names, err)
	}

	out.vals = nil
	stats, err := mk().Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		t.Fatalf("Resume in new sorter: %v", err)
	}
	if stats.RunsRecovered == 0 {
		t.Error("cross-process Resume recovered nothing")
	}
	if !sort.SliceIsSorted(out.vals, func(i, j int) bool { return out.vals[i].Key < out.vals[j].Key }) {
		t.Error("resumed output is not sorted")
	}
	if len(out.vals) != len(recs) {
		t.Errorf("resumed %d records, want %d", len(out.vals), len(recs))
	}
	// The successful merge consumed the durable state.
	if names, _ := filepath.Glob(filepath.Join(dir, "*.manifest")); len(names) != 0 {
		t.Errorf("manifest left behind after successful resume: %v", names)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spill files left behind: %v", entries)
	}
}

// TestSorterResumeMismatch pins the typed error a resume under a changed
// configuration must fail with.
func TestSorterResumeMismatch(t *testing.T) {
	dir := t.TempDir()
	recs := shuffledRecords(4000, 3)
	mk := func(memory int) *Sorter[Record] {
		s, err := New(func(a, b Record) bool { return a.Key < b.Key },
			WithMemoryRecords(memory),
			WithPolicy("2wrs"),
			WithTempDir(dir),
			WithManifest())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var out sliceSink[Record]
	if _, err := mk(256).Sort(context.Background(), &dyingSource{recs: recs, dieAt: 3000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v", err)
	}
	_, err := mk(512).Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if !errors.Is(err, ErrManifestMismatch) {
		t.Fatalf("resume under a changed memory budget: %v, want ErrManifestMismatch", err)
	}
}

// TestManifestConfigValidation pins the config-level rules for durable
// sorts: Resume demands WithManifest, and that is the only rule — the
// default constructor plus WithManifest, which means the auto policy,
// builds a sorter that sorts durably and resumes.
func TestManifestConfigValidation(t *testing.T) {
	less := func(a, b Record) bool { return a.Key < b.Key }
	s, err := New(less, WithMemoryRecords(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(context.Background(), &dyingSource{}, &sliceSink[Record]{}); err == nil {
		t.Error("Resume on a non-durable Sorter succeeded")
	}
	cfg := DefaultConfig(256)
	cfg.Manifest = true
	if err := cfg.Validate(); err != nil {
		t.Errorf("Manifest with the legacy algorithm path: %v", err)
	}
	cfg.Policy = "auto"
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate refused Manifest with the auto policy: %v", err)
	}

	s, err = New(less, WithMemoryRecords(256), WithManifest()) // no policy named: auto
	if err != nil {
		t.Fatalf("New refused WithManifest under the default policy: %v", err)
	}
	recs := shuffledRecords(4000, 7)
	plain, err := New(less, WithMemoryRecords(256))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := plain.SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	var out sliceSink[Record]
	if _, err := s.Sort(context.Background(), &dyingSource{recs: recs, dieAt: 3000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v, want errSourceDied", err)
	}
	out.vals = nil
	stats, err := s.Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if stats.Policy != "auto" || stats.RunsRecovered == 0 || !slices.Equal(out.vals, want) {
		t.Errorf("resumed %s sort recovered %d runs; output equals the plain auto sort's: %v",
			stats.Policy, stats.RunsRecovered, slices.Equal(out.vals, want))
	}
}

// ExampleSorter_Resume shows the durable-sort workflow: sort, crash,
// resume.
func ExampleSorter_Resume() {
	recs := shuffledRecords(2000, 9)
	s, err := New(func(a, b Record) bool { return a.Key < b.Key },
		WithMemoryRecords(128),
		WithPolicy("2wrs"),
		WithManifest()) // record every finished run in a durable manifest
	if err != nil {
		panic(err)
	}
	var out sliceSink[Record]
	// The input dies mid-sort: the runs generated so far stay on disk.
	_, err = s.Sort(context.Background(), &dyingSource{recs: recs, dieAt: 1500}, &out)
	fmt.Println("sort failed:", err != nil)
	// Resume re-serves the input from the start; committed runs are
	// reused, not regenerated.
	stats, err := s.Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered runs:", stats.RunsRecovered > 0)
	fmt.Println("sorted:", sort.SliceIsSorted(out.vals, func(i, j int) bool { return out.vals[i].Key < out.vals[j].Key }))
	// Output:
	// sort failed: true
	// recovered runs: true
	// sorted: true
}

// TestDurableOperatorsLeaveNothingBehind: after a successful operator or
// spilled selection on a WithManifest sorter the spill store holds no file
// of that operation — no run file, no snapshot and no manifest — exactly as
// after Sort, on a temp dir and on the sorter's in-process file system
// alike, and also when the call abandons the merged stream before its tail
// (TopK and Select do).
func TestDurableOperatorsLeaveNothingBehind(t *testing.T) {
	const memory = 128
	recs := shuffledRecords(3000, 4)
	less := func(a, b Record) bool { return a.Key < b.Key }
	ctx := context.Background()
	src := func() Source[Record] { return &dyingSource{recs: recs, dieAt: len(recs) + 1} }
	ops := []struct {
		name string
		run  func(s *Sorter[Record]) error
	}{
		{"Sort", func(s *Sorter[Record]) error { _, err := s.Sort(ctx, src(), &sliceSink[Record]{}); return err }},
		{"Distinct", func(s *Sorter[Record]) error { _, err := s.Distinct(ctx, src(), &sliceSink[Record]{}); return err }},
		{"GroupBy", func(s *Sorter[Record]) error {
			_, err := s.GroupBy(ctx, src(), nil, func(acc, _ Record) Record { return acc }, &sliceSink[Record]{})
			return err
		}},
		{"TopK", func(s *Sorter[Record]) error {
			_, err := s.TopK(ctx, src(), memory+1, &sliceSink[Record]{})
			return err
		}},
		{"BottomK", func(s *Sorter[Record]) error {
			_, err := s.BottomK(ctx, src(), memory+1, &sliceSink[Record]{})
			return err
		}},
		{"Select", func(s *Sorter[Record]) error { _, _, err := s.Select(ctx, src(), 10); return err }},
		{"Quantiles", func(s *Sorter[Record]) error { _, _, err := s.Quantiles(ctx, src(), []float64{0.1, 0.5}); return err }},
		{"MergeJoin", func(s *Sorter[Record]) error {
			_, err := MergeJoin(ctx, s, src(), s, src(),
				func(l, r Record) int { return cmp.Compare(l.Key, r.Key) }, func(l, _ Record) Record { return l }, &sliceSink[Record]{})
			return err
		}},
	}
	for _, store := range []string{"temp dir", "in-process"} {
		for _, op := range ops {
			t.Run(store+"/"+op.name, func(t *testing.T) {
				opts := []Option{WithMemoryRecords(memory), WithManifest()}
				if store == "temp dir" {
					opts = append(opts, WithTempDir(t.TempDir()))
				}
				s, err := New(less, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if err := op.run(s); err != nil {
					t.Fatal(err)
				}
				if names, err := s.fs.Names(); err != nil || len(names) != 0 {
					t.Errorf("left in the spill store: %v (%v)", names, err)
				}
			})
		}
	}
}

// TestFailedMergeLeavesResumableState breaks the spill store's last write,
// which is an intermediate merge's (the final merge writes nothing), under
// Sort and every spilling operator. Each must return the fault. A durable
// sorter must keep its manifest and arena, and a rerun under Config.Resume
// must recover runs, give the unbroken run's output and leave nothing; a
// plain sorter must keep nothing.
func TestFailedMergeLeavesResumableState(t *testing.T) {
	const memory = 256
	recs := shuffledRecords(20000, 5)
	less := func(a, b Record) bool { return a.Key < b.Key }
	ctx := context.Background()
	src := func() Source[Record] { return &dyingSource{recs: recs, dieAt: len(recs) + 1} }
	// Each op returns its output and how many runs its sorts recovered.
	ops := []struct {
		name string
		run  func(s *Sorter[Record]) ([]Record, int, error)
	}{
		{"Sort", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := s.Sort(ctx, src(), &out)
			return out.vals, st.RunsRecovered, err
		}},
		{"Distinct", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := s.Distinct(ctx, src(), &out)
			return out.vals, st.Sort.RunsRecovered, err
		}},
		{"GroupBy", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := s.GroupBy(ctx, src(), nil, func(acc, v Record) Record { acc.Aux += v.Aux; return acc }, &out)
			return out.vals, st.Sort.RunsRecovered, err
		}},
		{"TopK", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := s.TopK(ctx, src(), 4*memory, &out)
			return out.vals, st.Sort.RunsRecovered, err
		}},
		{"BottomK", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := s.BottomK(ctx, src(), 4*memory, &out)
			return out.vals, st.Sort.RunsRecovered, err
		}},
		{"Select", func(s *Sorter[Record]) ([]Record, int, error) {
			v, st, err := s.Select(ctx, src(), len(recs)/3)
			return []Record{v}, st.Sort.RunsRecovered, err
		}},
		{"Quantiles", func(s *Sorter[Record]) ([]Record, int, error) {
			out, st, err := s.Quantiles(ctx, src(), []float64{0.1, 0.5, 0.9})
			return out, st.Sort.RunsRecovered, err
		}},
		{"MergeJoin", func(s *Sorter[Record]) ([]Record, int, error) {
			var out sliceSink[Record]
			st, err := MergeJoin(ctx, s, src(), s, src(),
				func(l, r Record) int { return cmp.Compare(l.Key, r.Key) }, func(l, r Record) Record { l.Aux ^= r.Aux; return l }, &out)
			return out.vals, st.Left.RunsRecovered + st.Right.RunsRecovered, err
		}},
	}
	build := func(t *testing.T, fs vfs.FS, opts ...Option) *Sorter[Record] {
		s, err := New(less, append([]Option{WithMemoryRecords(memory), WithFanIn(2)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		s.fs = fs
		return s
	}
	holds := func(names []string, suffix string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return strings.HasSuffix(n, suffix) })
	}
	for _, op := range ops {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", op.name, durable), func(t *testing.T) {
				var opts []Option
				if durable {
					opts = append(opts, WithManifest())
				}
				probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
				want, _, err := op.run(build(t, probe, opts...))
				if err != nil {
					t.Fatal(err)
				}
				mem := vfs.NewMemFS()
				broken := faultfs.New(mem, faultfs.Options{})
				broken.Fail(faultfs.Write, probe.Calls(faultfs.Write))
				s := build(t, broken, opts...)
				if _, _, err := op.run(s); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("err = %v, want the injected write fault", err)
				}
				names, _ := mem.Names()
				if !durable {
					if len(names) != 0 {
						t.Fatalf("a plain sorter left %v", names)
					}
					return
				}
				if !holds(names, ".manifest") || !holds(names, ".arena") {
					t.Fatalf("a durable sorter left %v, want its manifest and arena", names)
				}
				cfg := s.Config()
				cfg.Resume = true
				got, recovered, err := op.run(build(t, mem, WithConfig(cfg)))
				if err != nil || recovered == 0 || !slices.Equal(got, want) {
					t.Fatalf("rerun under Resume: %v, %d runs recovered, output equal: %v", err, recovered, slices.Equal(got, want))
				}
				if names, _ := mem.Names(); len(names) != 0 {
					t.Fatalf("the rerun left %v", names)
				}
			})
		}
	}
}
