package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/record"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// result is what the tests keep of one generation pass: the runs NextRun
// handed out, the records they hold and how many of them overlap.
type result struct {
	Runs        []runio.Run
	Records     int64
	OverlapRuns int64
}

// AvgRunLength returns the mean run length in records, 0 for no runs.
func (r result) AvgRunLength() float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	return float64(r.Records) / float64(len(r.Runs))
}

// generate steps a 2WRS stepper over src to exhaustion.
func generate(src stream.BatchReader[record.Record], em *runio.Emitter[record.Record], cfg Config, key func(record.Record) float64) (res result, err error) {
	s, err := NewStepper(src, em, cfg, key)
	if err != nil {
		return res, err
	}
	for {
		run, ok, err := s.NextRun()
		if err != nil || !ok {
			return res, err
		}
		res.Runs = append(res.Runs, run)
		res.Records += run.Records
		if !run.Concatenable {
			res.OverlapRuns++
		}
	}
}

// rsRuns is the baseline: the runs classic replacement selection generates
// from recs with a heap of memory records.
func rsRuns(t *testing.T, recs []record.Record, memory int) []runio.Run {
	t.Helper()
	s, err := rs.NewStepper(stream.NewSliceReader(recs), runio.RecordEmitter(vfs.NewMemFS(), "rs"), memory, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var runs []runio.Run
	for {
		run, ok, err := s.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return runs
		}
		runs = append(runs, run)
	}
}

// runTWRS executes 2WRS over recs and returns the result plus the fs holding
// the runs.
func runTWRS(t *testing.T, recs []record.Record, cfg Config) (result, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "t")
	em.PageSize = 64
	em.PagesPerFile = 8
	res, err := generate(stream.NewSliceReader(recs), em, cfg, record.Key)
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
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

// verifyRuns checks every run reads back globally sorted (concatenable runs
// by concatenation, overlapping runs as a piece per segment under the merge's
// tree) and that the union of all runs is exactly the input multiset.
func verifyRuns(t *testing.T, fs vfs.FS, runs []runio.Run, input []record.Record) {
	t.Helper()
	union := make(record.Multiset)
	var total int64
	for i, run := range runs {
		recs, err := readRun(fs, run, 4096)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if int64(len(recs)) != run.Records {
			t.Fatalf("run %d: manifest says %d records, read %d", i, run.Records, len(recs))
		}
		for k := 1; k < len(recs); k++ {
			if recs[k].Key < recs[k-1].Key {
				t.Fatalf("run %d (concatenable=%v) not sorted at %d: %d after %d",
					i, run.Concatenable, k, recs[k].Key, recs[k-1].Key)
			}
		}
		for _, rec := range recs {
			union[rec]++
		}
		// Each individual stream must also be sorted on its own.
		for j, in := range streams(run) {
			srecs, err := readRun(fs, in, 1024)
			if err != nil {
				t.Fatalf("run %d input %d: %v", i, j, err)
			}
			if !record.IsSorted(srecs) {
				t.Fatalf("run %d stream %d not sorted", i, j)
			}
		}
		total += run.Records
	}
	if total != int64(len(input)) {
		t.Fatalf("runs hold %d records, input had %d", total, len(input))
	}
	if !union.Equal(record.NewMultiset(input)) {
		t.Fatal("runs are not a permutation of the input")
	}
}

// streams returns the run's non-empty segments, each as a run of its own.
func streams(run runio.Run) (ins []runio.Run) {
	for _, s := range run.Segments {
		if s.Records > 0 {
			ins = append(ins, runio.SingleRun(s))
		}
	}
	return ins
}

func cfgFor(memory int, setup BufferSetup, frac float64, in InputHeuristic, out OutputHeuristic) Config {
	return Config{Memory: memory, Setup: setup, BufferFrac: frac, Input: in, Output: out, Seed: 1}
}

func TestTheorem2SortedInputOneRun(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Sorted, N: 5000, Noise: 100, Seed: 1})
	for _, setup := range BufferSetups {
		res, fs := runTWRS(t, recs, cfgFor(200, setup, 0.02, InMean, OutRandom))
		if len(res.Runs) != 1 {
			t.Fatalf("setup %v: sorted input produced %d runs, want 1", setup, len(res.Runs))
		}
		verifyRuns(t, fs, res.Runs, recs)
	}
}

func TestTheorem4ReverseSortedOneRun(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: 5000, Noise: 100, Seed: 1})
	for _, setup := range BufferSetups {
		res, fs := runTWRS(t, recs, cfgFor(200, setup, 0.02, InMean, OutRandom))
		if len(res.Runs) != 1 {
			t.Fatalf("setup %v: reverse input produced %d runs, want 1", setup, len(res.Runs))
		}
		verifyRuns(t, fs, res.Runs, recs)
	}
}

func TestTheorem3And4RSvs2WRSOnReverse(t *testing.T) {
	// RS generates ceil(N/M) runs on reverse-sorted input (Theorem 3);
	// 2WRS generates one (Theorem 4).
	const n, m = 2000, 100
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: n})

	if got, want := len(rsRuns(t, recs, m)), n/m; got != want {
		t.Fatalf("RS produced %d runs on reverse input, want %d", got, want)
	}

	res, _ := runTWRS(t, recs, cfgFor(m, InputBufferOnly, 0, InMean, OutRandom))
	if len(res.Runs) != 1 {
		t.Fatalf("2WRS produced %d runs on reverse input, want 1", len(res.Runs))
	}
}

func TestTheorem6AlternatingRunsOfSectionLength(t *testing.T) {
	// k-record ascending/descending chunks with m << k: 2WRS captures each
	// chunk pair, giving ≈ n/sections · 2 long runs... the thesis states
	// average run length ≈ k (one run per monotone section).
	const n, sections = 20000, 10
	recs := gen.Generate(gen.Config{Kind: gen.Alternating, N: n, Sections: sections})
	res, fs := runTWRS(t, recs, cfgFor(200, BothBuffers, 0.02, InMean, OutRandom))
	verifyRuns(t, fs, res.Runs, recs)
	if len(res.Runs) > sections {
		t.Fatalf("2WRS produced %d runs on alternating input, want ≤ %d", len(res.Runs), sections)
	}
	// And it must beat RS by a wide margin (RS ≈ n/(2m) runs here).
	if rsRes := rsRuns(t, recs, 200); len(res.Runs)*2 > len(rsRes) {
		t.Fatalf("2WRS runs (%d) not clearly fewer than RS runs (%d)", len(res.Runs), len(rsRes))
	}
}

func TestTheorem7TopOnlyEqualsRS(t *testing.T) {
	// With the TopOnly heuristic and no buffers, 2WRS degenerates to exactly
	// RS: same number of runs with the same lengths on any input.
	for _, kind := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: 3000, Seed: 3, Noise: 500})
		rsRes := rsRuns(t, recs, 128)
		res, _ := runTWRS(t, recs, cfgFor(128, InputBufferOnly, 0, InTopOnly, OutRandom))
		if len(res.Runs) != len(rsRes) {
			t.Fatalf("%v: TopOnly 2WRS made %d runs, RS made %d", kind, len(res.Runs), len(rsRes))
		}
		for i := range res.Runs {
			if res.Runs[i].Records != rsRes[i].Records {
				t.Fatalf("%v run %d: 2WRS length %d, RS length %d",
					kind, i, res.Runs[i].Records, rsRes[i].Records)
			}
		}
	}
}

func TestRandomInputMatchesRSRunLength(t *testing.T) {
	// §5.2.4: on random input 2WRS generates runs of ≈ 2× memory, like RS.
	const n, m = 40000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 5})
	res, fs := runTWRS(t, recs, cfgFor(m, BothBuffers, 0.02, InMean, OutRandom))
	verifyRuns(t, fs, res.Runs, recs)
	avg := res.AvgRunLength() / float64(m)
	if avg < 1.6 || avg > 2.6 {
		t.Fatalf("random input avg run length = %.2f× memory, want ≈2.0", avg)
	}
}

func TestMixedBalancedLongRuns(t *testing.T) {
	// §5.2.5: good configurations collapse the mixed dataset to very few
	// runs (the optimum is 2 runs at 100MB scale).
	const n, m = 20000, 500
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: n, Seed: 5, Noise: 100})
	res, fs := runTWRS(t, recs, cfgFor(m, BothBuffers, 0.2, InMean, OutRandom))
	verifyRuns(t, fs, res.Runs, recs)
	if len(res.Runs) > 4 {
		t.Fatalf("mixed balanced produced %d runs, want very few", len(res.Runs))
	}
	// RS gets ≈ n/(2m) = 20 runs on the same input.
	if rsRes := rsRuns(t, recs, m); len(rsRes) < 3*len(res.Runs) {
		t.Fatalf("2WRS (%d runs) should beat RS (%d runs) by ≥3× on mixed input",
			len(res.Runs), len(rsRes))
	}
}

func TestAllConfigurationsProduceValidRuns(t *testing.T) {
	// The factorial cross of the thesis §5.2 at small scale: every
	// combination of setup × heuristics × dataset must yield sorted runs
	// that partition the input. This is the core safety net.
	const n, m = 2000, 100
	for _, kind := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 2, Noise: 50})
		for _, setup := range BufferSetups {
			for _, in := range InputHeuristics {
				for _, out := range OutputHeuristics {
					res, fs := runTWRS(t, recs, cfgFor(m, setup, 0.1, in, out))
					verifyRuns(t, fs, res.Runs, recs)
				}
			}
		}
	}
}

func TestBufferFractionSweepValid(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 3000, Seed: 4})
	for _, frac := range []float64{0, 0.0002, 0.002, 0.02, 0.2} {
		res, fs := runTWRS(t, recs, cfgFor(100, BothBuffers, frac, InMean, OutRandom))
		verifyRuns(t, fs, res.Runs, recs)
	}
}

func TestEmptyInput(t *testing.T) {
	res, _ := runTWRS(t, nil, cfgFor(100, BothBuffers, 0.02, InMean, OutRandom))
	if len(res.Runs) != 0 || res.Records != 0 {
		t.Fatalf("empty input: %+v", res)
	}
}

func TestInputSmallerThanMemory(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 50, Seed: 1})
	res, fs := runTWRS(t, recs, cfgFor(1000, BothBuffers, 0.02, InMean, OutRandom))
	if len(res.Runs) != 1 {
		t.Fatalf("in-memory input produced %d runs, want 1", len(res.Runs))
	}
	verifyRuns(t, fs, res.Runs, recs)
}

func TestSingleRecord(t *testing.T) {
	recs := record.FromKeys(42)
	res, fs := runTWRS(t, recs, cfgFor(10, BothBuffers, 0.2, InMean, OutRandom))
	if len(res.Runs) != 1 || res.Runs[0].Records != 1 {
		t.Fatalf("single record: %+v", res)
	}
	verifyRuns(t, fs, res.Runs, recs)
}

func TestAllEqualKeys(t *testing.T) {
	recs := make([]record.Record, 1000)
	for i := range recs {
		recs[i] = record.Record{Key: 7, Aux: uint64(i)}
	}
	for _, setup := range BufferSetups {
		res, fs := runTWRS(t, recs, cfgFor(50, setup, 0.1, InMean, OutRandom))
		verifyRuns(t, fs, res.Runs, recs)
		if len(res.Runs) != 1 {
			t.Fatalf("setup %v: constant input produced %d runs, want 1", setup, len(res.Runs))
		}
	}
}

func TestNoOverlapOnStructuredInputs(t *testing.T) {
	// On monotone inputs with the recommended configuration every run's
	// stream ranges are disjoint, so runs are concatenable.
	for _, kind := range []gen.Kind{gen.Sorted, gen.ReverseSorted} {
		recs := gen.Generate(gen.Config{Kind: kind, N: 5000, Seed: 1, Noise: 100})
		res, _ := runTWRS(t, recs, cfgFor(200, BothBuffers, 0.02, InMean, OutRandom))
		if res.OverlapRuns != 0 {
			t.Fatalf("%v: %d overlapping runs, want 0", kind, res.OverlapRuns)
		}
		for _, run := range res.Runs {
			if !run.Concatenable {
				t.Fatalf("%v: run not concatenable", kind)
			}
		}
	}
}

func TestRecordsCounted(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 1234, Seed: 1})
	res, _ := runTWRS(t, recs, cfgFor(100, BothBuffers, 0.02, InMean, OutRandom))
	if res.Records != 1234 {
		t.Fatalf("Records = %d, want 1234", res.Records)
	}
	var sum int64
	for _, r := range res.Runs {
		sum += r.Records
	}
	if sum != 1234 {
		t.Fatalf("runs sum to %d, want 1234", sum)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 2000, Seed: 9})
	a, _ := runTWRS(t, recs, cfgFor(100, BothBuffers, 0.02, InRandom, OutRandom))
	b, _ := runTWRS(t, recs, cfgFor(100, BothBuffers, 0.02, InRandom, OutRandom))
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("same seed gave %d vs %d runs", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		if a.Runs[i].Records != b.Runs[i].Records {
			t.Fatal("same seed gave different run lengths")
		}
	}
}

func TestConfigSizes(t *testing.T) {
	cases := []struct {
		cfg       Config
		wantIn    int
		wantVic   int
		wantArena int
		wantErr   bool
	}{
		{cfg: Config{Memory: 1000, Setup: InputBufferOnly, BufferFrac: 0.02}, wantIn: 20, wantVic: 0, wantArena: 980},
		{cfg: Config{Memory: 1000, Setup: VictimBufferOnly, BufferFrac: 0.02}, wantIn: 0, wantVic: 20, wantArena: 980},
		{cfg: Config{Memory: 1000, Setup: BothBuffers, BufferFrac: 0.02}, wantIn: 10, wantVic: 10, wantArena: 980},
		{cfg: Config{Memory: 1000, Setup: BothBuffers, BufferFrac: 0}, wantIn: 0, wantVic: 0, wantArena: 1000},
		{cfg: Config{Memory: 2, Setup: BothBuffers, BufferFrac: 0}, wantErr: true},
		{cfg: Config{Memory: 1000, Setup: BothBuffers, BufferFrac: 1.5}, wantErr: true},
		{cfg: Config{Memory: 1000, Setup: BothBuffers, BufferFrac: -0.1}, wantErr: true},
	}
	for i, c := range cases {
		in, vic, arena, err := c.cfg.sizes()
		if c.wantErr {
			if err == nil {
				t.Fatalf("case %d: expected error", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if in != c.wantIn || vic != c.wantVic || arena != c.wantArena {
			t.Fatalf("case %d: sizes = (%d,%d,%d), want (%d,%d,%d)",
				i, in, vic, arena, c.wantIn, c.wantVic, c.wantArena)
		}
	}
}

func TestRecommendedConfig(t *testing.T) {
	cfg := Recommended(1000)
	if cfg.Setup != BothBuffers || cfg.Input != InMean || cfg.Output != OutRandom || cfg.BufferFrac != 0.02 {
		t.Fatalf("Recommended = %+v, not the §5.3 configuration", cfg)
	}
}

func TestParseHeuristics(t *testing.T) {
	for _, h := range append(InputHeuristics, InTopOnly) {
		got, err := ParseInputHeuristic(h.String())
		if err != nil || got != h {
			t.Fatalf("ParseInputHeuristic(%q) = (%v, %v)", h.String(), got, err)
		}
	}
	for _, h := range OutputHeuristics {
		got, err := ParseOutputHeuristic(h.String())
		if err != nil || got != h {
			t.Fatalf("ParseOutputHeuristic(%q) = (%v, %v)", h.String(), got, err)
		}
	}
	for _, s := range BufferSetups {
		got, err := ParseBufferSetup(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseBufferSetup(%q) = (%v, %v)", s.String(), got, err)
		}
	}
	if _, err := ParseInputHeuristic("x"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseOutputHeuristic("x"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := ParseBufferSetup("x"); err == nil {
		t.Fatal("expected error")
	}
}

func TestInvalidMemoryRejected(t *testing.T) {
	_, err := generate(stream.NewSliceReader[record.Record](nil), runio.RecordEmitter(vfs.NewMemFS(), "t"),
		Config{Memory: 0}, record.Key)
	if err == nil {
		t.Fatal("memory 0 should be rejected")
	}
}
