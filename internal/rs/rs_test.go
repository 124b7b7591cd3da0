package rs

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// result is what the tests keep of one generation pass.
type result struct {
	Runs    []runio.Run
	Records int64
}

// AvgRunLength returns the mean run length in records, 0 for no runs.
func (r result) AvgRunLength() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	return float64(r.Records) / float64(len(r.Runs))
}

// drain steps a generator to exhaustion.
func drain(nextRun func() (runio.Run, bool, error)) (res result, err error) {
	for {
		run, ok, err := nextRun()
		if err != nil || !ok {
			return res, err
		}
		res.Runs = append(res.Runs, run)
		res.Records += run.Records
	}
}

// generate drains recs through classic replacement selection.
func generate(t *testing.T, recs []record.Record, memory int) (result, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	s, err := NewStepper(stream.NewSliceReader(recs), runio.RecordEmitter(fs, "rs"), memory, false, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := drain(s.NextRun)
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
}

// generateLSS drains recs through the Load-Sort-Store generator, the
// QuickStepper.
func generateLSS(recs []record.Record, memory int) (result, vfs.FS, error) {
	fs := vfs.NewMemFS()
	s, err := NewQuickStepper(stream.NewSliceReader(recs), runio.RecordEmitter(fs, "lss"), memory)
	if err != nil {
		return result{}, fs, err
	}
	res, err := drain(s.NextRun)
	return res, fs, err
}

// readRun reads a run back in ascending order: a concatenable run is one
// piece, and one whose stream ranges overlap is a piece per segment, merged
// by the loser tree as the merge phase would.
func readRun(fs vfs.FS, run runio.Run, bufBytes int) ([]record.Record, error) {
	pieces, err := runio.OpenRun(storage.NewRaw(fs), run, bufBytes, codec.Record16{})
	if err != nil {
		return nil, err
	}
	srcs := make([]merge.Source[record.Record], len(pieces))
	for i, p := range pieces {
		srcs[i] = p
	}
	lt, err := merge.NewLoserTree(srcs, record.Less)
	if err != nil {
		return nil, err
	}
	defer lt.Close()
	return stream.ReadAllCancel[record.Record](lt, nil)
}

func verify(t *testing.T, fs vfs.FS, runs []runio.Run, input []record.Record) {
	t.Helper()
	union := make(record.Multiset)
	for i, run := range runs {
		recs, err := readRun(fs, run, 1024)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !record.IsSorted(recs) {
			t.Fatalf("run %d not sorted", i)
		}
		if int64(len(recs)) != run.Records {
			t.Fatalf("run %d: manifest %d vs read %d", i, run.Records, len(recs))
		}
		for _, rec := range recs {
			union[rec]++
		}
	}
	if !union.Equal(record.NewMultiset(input)) {
		t.Fatal("runs are not a permutation of the input")
	}
}

func TestTheorem1SortedInputOneRun(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Sorted, N: 5000, Noise: 100, Seed: 1})
	res, fs := generate(t, recs, 100)
	if len(res.Runs) != 1 {
		t.Fatalf("sorted input produced %d runs, want 1", len(res.Runs))
	}
	verify(t, fs, res.Runs, recs)
}

func TestTheorem3ReverseSortedMinimalRuns(t *testing.T) {
	const n, m = 2000, 100
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: n})
	res, fs := generate(t, recs, m)
	if len(res.Runs) != n/m {
		t.Fatalf("reverse input produced %d runs, want %d", len(res.Runs), n/m)
	}
	for i, run := range res.Runs {
		if run.Records != m {
			t.Fatalf("run %d has %d records, want exactly memory (%d)", i, run.Records, m)
		}
	}
	verify(t, fs, res.Runs, recs)
}

func TestRandomInputTwiceMemory(t *testing.T) {
	// §3.5 (Knuth's snowplow): expected run length is 2× memory.
	const n, m = 50000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 7})
	res, fs := generate(t, recs, m)
	verify(t, fs, res.Runs, recs)
	ratio := res.AvgRunLength() / float64(m)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("avg run length = %.2f× memory, want ≈2.0", ratio)
	}
}

func TestTheorem5AlternatingAboutTwiceMemory(t *testing.T) {
	// Chunks of k ascending + k descending with m << k: RS averages ≈2m.
	const n, m, sections = 40000, 200, 10
	recs := gen.Generate(gen.Config{Kind: gen.Alternating, N: n, Sections: sections})
	res, fs := generate(t, recs, m)
	verify(t, fs, res.Runs, recs)
	ratio := res.AvgRunLength() / float64(m)
	if ratio < 1.5 || ratio > 3.0 {
		t.Fatalf("alternating avg run length = %.2f× memory, want ≈2", ratio)
	}
}

func TestFirstRunAtLeastMemory(t *testing.T) {
	// Every RS run is at least as long as memory... the guarantee is that
	// the FIRST run always is (the heap starts full) and no run is empty.
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 2})
	res, _ := generate(t, recs, 250)
	if res.Runs[0].Records < 250 {
		t.Fatalf("first run has %d records, want ≥ memory", res.Runs[0].Records)
	}
	for i, r := range res.Runs {
		if r.Records == 0 {
			t.Fatalf("run %d is empty", i)
		}
	}
}

func TestSmallInputSingleRun(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 10, Seed: 1})
	res, fs := generate(t, recs, 100)
	if len(res.Runs) != 1 {
		t.Fatalf("in-memory input produced %d runs, want 1", len(res.Runs))
	}
	verify(t, fs, res.Runs, recs)
}

func TestEmptyInputNoRuns(t *testing.T) {
	res, _ := generate(t, nil, 10)
	if len(res.Runs) != 0 || res.Records != 0 {
		t.Fatalf("empty input: %+v", res)
	}
	if res.AvgRunLength() != 0 {
		t.Fatal("AvgRunLength of no runs should be 0")
	}
}

func TestInvalidMemory(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := NewStepper(stream.NewSliceReader[record.Record](nil), runio.RecordEmitter(fs, "rs"), 0, false, false); err == nil {
		t.Fatal("memory 0 should be rejected")
	}
	if _, _, err := generateLSS(nil, -1); err == nil {
		t.Fatal("negative memory should be rejected")
	}
}

func TestLSSRunsExactlyMemorySized(t *testing.T) {
	const n, m = 1050, 100
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 3})
	res, fs, err := generateLSS(recs, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 11 {
		t.Fatalf("LSS produced %d runs, want 11", len(res.Runs))
	}
	for i, run := range res.Runs[:10] {
		if run.Records != m {
			t.Fatalf("LSS run %d has %d records, want %d", i, run.Records, m)
		}
	}
	if res.Runs[10].Records != 50 {
		t.Fatalf("last LSS run has %d records, want 50", res.Runs[10].Records)
	}
	verify(t, fs, res.Runs, recs)
}

func TestLSSExactMultiple(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 300, Seed: 3})
	res, fs, err := generateLSS(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("LSS produced %d runs, want 3", len(res.Runs))
	}
	verify(t, fs, res.Runs, recs)
}

func TestRSBeatsLSSOnRandom(t *testing.T) {
	// RS's 2× memory run length beats LSS's 1× (§2.1.1).
	const n, m = 20000, 200
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 8})
	rsRes, _ := generate(t, recs, m)
	lssRes, _, err := generateLSS(recs, m)
	if err != nil {
		t.Fatal(err)
	}
	if rsRes.AvgRunLength() <= 1.5*lssRes.AvgRunLength() {
		t.Fatalf("RS avg %f should clearly beat LSS avg %f", rsRes.AvgRunLength(), lssRes.AvgRunLength())
	}
}

func TestAllDatasetsValid(t *testing.T) {
	for _, kind := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: 3000, Seed: 4, Noise: 50})
		res, fs := generate(t, recs, 128)
		verify(t, fs, res.Runs, recs)
		if res.Records != 3000 {
			t.Fatalf("%v: consumed %d records", kind, res.Records)
		}
	}
}
