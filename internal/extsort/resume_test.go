package extsort

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// testRecords builds a deterministic shuffled record input with duplicate
// keys, so byte-identity of resumed output is a real assertion (equal keys
// carry distinct Aux payloads whose order depends on run structure).
func testRecords(n int, seed int64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: int64(rng.Intn(n / 2)), Aux: uint64(i)}
	}
	return recs
}

// testStrings builds a deterministic variable-width string input.
func testStrings(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%06d-%s", rng.Intn(n/2), strings.Repeat("x", rng.Intn(24)))
	}
	return vals
}

// killedReader serves vals but fails with errSrcKilled when asked for
// record number failAt (1-based): the in-process analogue of killing the
// sorting process at an exact input position.
type killedReader[T any] struct {
	vals   []T
	pos    int
	failAt int64
}

var errSrcKilled = errors.New("extsort_test: source killed")

func (k *killedReader[T]) Read() (T, error) {
	var zero T
	if k.pos >= len(k.vals) {
		return zero, io.EOF
	}
	if int64(k.pos+1) >= k.failAt {
		return zero, errSrcKilled
	}
	v := k.vals[k.pos]
	k.pos++
	return v, nil
}

func stringOps() Ops[string] {
	return Ops[string]{
		Less:  func(a, b string) bool { return a < b },
		Codec: codec.String{},
	}
}

func durableCfg(memory int) Config {
	return Config{Policy: policy.TwoWayRS, Memory: memory, Manifest: true}
}

// mergeToSlice merges a run set into a slice.
func mergeToSlice[T any](t *testing.T, rset *RunSet[T]) ([]T, Stats) {
	t.Helper()
	out := stream.SliceWriter[T]{}
	stats, err := rset.Merge(&out)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	return out.Vals, stats
}

// writeFile overwrites a file on fs in place with data of its length.
func writeFile(t *testing.T, fs vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runFileSums fingerprints the runs as they lie on fs: one "run name crc64"
// line per physical file, in run and segment order. The name is the whole
// file name, so a durable pass lines up with a plain one only if its
// boundaries take no name of their own.
func runFileSums(t *testing.T, fs vfs.FS, runs []runio.Run) []string {
	t.Helper()
	tab := crc64.MakeTable(crc64.ECMA)
	var out []string
	for i, run := range runs {
		for _, seg := range run.Segments {
			seg.EachFile(func(name string, _ int) {
				out = append(out, fmt.Sprintf("run %d %s %016x", i, name, crc64.Checksum(readFile(t, fs, name), tab)))
			})
		}
	}
	return out
}

// durableBaseline runs an uninterrupted Manifest-mode sort and returns the
// sorted output, the committed manifest state (captured before Merge
// removes the manifest) and the fingerprints of its run files.
func durableBaseline[T any](t *testing.T, vals []T, cfg Config, ops Ops[T]) ([]T, *manifest.State, []string) {
	t.Helper()
	fs := vfs.NewMemFS()
	rset, err := GenerateRuns[T](stream.NewSliceReader(vals), fs, cfg, ops)
	if err != nil {
		t.Fatalf("baseline GenerateRuns: %v", err)
	}
	st, err := manifest.Load(fs, manifest.Name(rset.cfg.Prefix))
	if err != nil {
		t.Fatalf("baseline manifest: %v", err)
	}
	if !st.Committed {
		t.Fatal("baseline manifest not committed")
	}
	files := runFileSums(t, rset.spill, rset.Runs())
	want, _ := mergeToSlice(t, rset)
	if _, err := fs.Open(manifest.Name(rset.cfg.Prefix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest survived a successful merge: %v", err)
	}
	return want, st, files
}

// tieRecords builds an input of at most 16 distinct keys with distinct
// payloads: nearly every heap comparison is a tie, so a resumed sort
// reproduces the uninterrupted one's bytes only if its generator stands in
// the exact heap layout the uninterrupted one had.
func tieRecords(n int, seed int64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: int64(rng.Intn(16)), Aux: uint64(i)}
	}
	return recs
}

// bufferedTWRS is a 2WRS configuration whose input and victim buffers are
// real at test-sized memory (a fifth of it, where the recommended 2% rounds
// to nothing), so resumes exercise the replayed FIFO, its running sum and
// its sliding median.
func bufferedTWRS(in core.InputHeuristic, out core.OutputHeuristic) core.Config {
	return core.Config{Setup: core.BothBuffers, BufferFrac: 0.2, Input: in, Output: out, Seed: 3}
}

// TestResumeAtEveryRunBoundary kills generation at every run boundary of a
// durable sort and resumes: the run files and the output must be
// byte-identical to the uninterrupted sort's, and exactly the boundaries
// committed before the kill must be recovered rather than regenerated. The
// named cases widen the default one (2WRS, recommended heuristics) to the
// state a replay has to reach again: heap layout under ties, the coin-flip
// position of the random heuristics, the FIFO's float sum and median, a
// key-less element type, the other generators, the simulated disk above
// the arena with the thesis' chain layout, and a sort of two lanes.
func TestResumeAtEveryRunBoundary(t *testing.T) {
	resumeAtEveryBoundary(t, testRecords(1500, 1), durableCfg(64), RecordOps())

	with := func(mut func(*Config)) Config {
		cfg := durableCfg(64)
		mut(&cfg)
		return cfg
	}
	t.Run("ties", func(t *testing.T) {
		resumeAtEveryBoundary(t, tieRecords(1500, 2), durableCfg(64), RecordOps())
	})
	t.Run("mean_sum", func(t *testing.T) {
		resumeAtEveryBoundary(t, testRecords(1500, 3),
			with(func(c *Config) { c.TWRS = bufferedTWRS(core.InMean, core.OutRandom) }), RecordOps())
	})
	t.Run("random_heuristics", func(t *testing.T) {
		resumeAtEveryBoundary(t, tieRecords(1500, 4),
			with(func(c *Config) { c.TWRS = bufferedTWRS(core.InRandom, core.OutRandom) }), RecordOps())
	})
	t.Run("median_comparator_only", func(t *testing.T) {
		resumeAtEveryBoundary(t, testStrings(900, 5),
			with(func(c *Config) { c.TWRS = bufferedTWRS(core.InMedian, core.OutRandom) }), stringOps())
	})
	t.Run("min_distance", func(t *testing.T) {
		resumeAtEveryBoundary(t, tieRecords(1500, 9),
			with(func(c *Config) { c.TWRS = bufferedTWRS(core.InMean, core.OutMinDistance) }), RecordOps())
	})
	t.Run("min_distance_comparator_only", func(t *testing.T) {
		resumeAtEveryBoundary(t, testStrings(900, 10),
			with(func(c *Config) { c.TWRS = bufferedTWRS(core.InMean, core.OutMinDistance) }), stringOps())
	})
	t.Run("rs_ties", func(t *testing.T) {
		resumeAtEveryBoundary(t, tieRecords(1500, 6), with(func(c *Config) { c.Policy = policy.RS }), RecordOps())
	})
	t.Run("alternating_ties", func(t *testing.T) {
		resumeAtEveryBoundary(t, tieRecords(1500, 7), with(func(c *Config) { c.Policy = policy.Alternating }), RecordOps())
	})
	t.Run("legacy_lss", func(t *testing.T) {
		resumeAtEveryBoundary(t, testRecords(1500, 8),
			with(func(c *Config) { c.Policy, _ = policy.Parse("lss") }), RecordOps())
	})
	t.Run("simulated_disk", func(t *testing.T) {
		disk := iosim.NewDisk(iosim.Defaults2010())
		resumeAtEveryBoundary(t, testRecords(1500, 11), with(func(c *Config) { c.Disk = disk }), RecordOps())
		if disk.Stats().Bytes() == 0 {
			t.Fatal("the simulated disk saw no traffic")
		}
	})
	t.Run("lanes_2", resumeLanesAtEveryBoundary)
	// auto, switched by its probe off the paper's 2wrs onto rs: the
	// alternating dataset opens with an ascending section a memory-load
	// long. The replay must repeat that one choice.
	t.Run("auto_switching", func(t *testing.T) {
		recs := gen.Generate(gen.Config{Kind: gen.Alternating, N: 4000, Sections: 64, Seed: 13, Noise: 1000})
		st := resumeAtEveryBoundary(t, recs, with(func(c *Config) { c.Policy = policy.Auto }), RecordOps())
		if got := st.Runs[0].Policy; got != policy.RS.String() {
			t.Fatalf("auto's probe chose %s; the input must take it off 2wrs onto rs", got)
		}
	})
}

// resumeAtEveryBoundary returns the committed manifest of the
// uninterrupted durable pass every resume is held to.
func resumeAtEveryBoundary[T comparable](t *testing.T, recs []T, cfg Config, ops Ops[T]) *manifest.State {
	want, st, wantFiles := durableBaseline(t, recs, cfg, ops)
	if len(st.Runs) < 3 {
		t.Fatalf("baseline produced only %d runs; matrix needs more", len(st.Runs))
	}
	for j := 0; j <= len(st.Runs); j++ {
		j := j
		t.Run(fmt.Sprintf("boundary_%d", j), func(t *testing.T) {
			failAt := int64(1) // before the first record
			if j > 0 {
				failAt = st.Runs[j-1].InputPos + 1
			}
			if j == len(st.Runs) {
				failAt = int64(len(recs)) + 10
			}
			// A boundary whose InputPos is the whole input (trailing runs
			// drained from carries after EOF) cannot be separated from
			// completion by a source kill: the pass just finishes, and the
			// committed manifest must then recover every run.
			killFires := failAt <= int64(len(recs))
			wantRecovered := j
			if !killFires {
				wantRecovered = len(st.Runs)
			}
			// A run that reads no input of its own commits its boundary
			// before the kill fires too.
			for wantRecovered < len(st.Runs) && st.Runs[wantRecovered].InputPos < failAt {
				wantRecovered++
			}
			fs := vfs.NewMemFS()
			_, err := GenerateRuns[T](&killedReader[T]{vals: recs, failAt: failAt}, fs, cfg, ops)
			if killFires {
				if !errors.Is(err, errSrcKilled) {
					t.Fatalf("kill at %d: err = %v, want errSrcKilled", failAt, err)
				}
			} else if err != nil {
				t.Fatalf("uninterrupted pass failed: %v", err)
			}

			reg := obs.NewRegistry()
			rcfg := cfg
			rcfg.Resume = true
			rcfg.Metrics = reg
			rset, err := GenerateRuns[T](stream.NewSliceReader(recs), fs, rcfg, ops)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			stats := rset.Stats()
			if stats.RunsRecovered != wantRecovered {
				t.Errorf("RunsRecovered = %d, want %d", stats.RunsRecovered, wantRecovered)
			}
			if got := reg.Counter(obs.MRunsRecovered, "").Value(); got != int64(wantRecovered) {
				t.Errorf("%s = %d, want %d", obs.MRunsRecovered, got, wantRecovered)
			}
			if stats.Runs != len(st.Runs) {
				t.Errorf("resumed run count = %d, want %d (boundaries must be deterministic)", stats.Runs, len(st.Runs))
			}
			if stats.Policy != cfg.Policy.String() {
				t.Errorf("resumed sort ran %s, want %s", stats.Policy, cfg.Policy)
			}
			// The prefix a resume skips is not input of this pass.
			wantIn := int64(0)
			if wantRecovered < len(st.Runs) {
				wantIn = int64(len(recs))
				if wantRecovered > 0 {
					wantIn -= st.Runs[wantRecovered-1].InputPos
				}
			}
			if got := reg.Counter(obs.MRecordsIn, "").Value(); got != wantIn {
				t.Errorf("%s = %d, want %d", obs.MRecordsIn, got, wantIn)
			}
			if files := runFileSums(t, rset.spill, rset.Runs()); !slices.Equal(files, wantFiles) {
				t.Errorf("resumed run files differ from the uninterrupted sort's:\n got %v\nwant %v", files, wantFiles)
			}
			got, _ := mergeToSlice(t, rset)
			if !slices.Equal(got, want) {
				t.Fatalf("resumed output differs from uninterrupted sort (len %d vs %d)", len(got), len(want))
			}
		})
	}
	return st
}

// TestResumeCrashMatrix sweeps seeded crash points — including torn writes
// — across codec widths and keyed/comparator modes, with
// the crash free to land mid-run-file or mid-manifest-append. Every
// combination must resume to output byte-identical to the uninterrupted
// sort.
func TestResumeCrashMatrix(t *testing.T) {
	type runner func(t *testing.T, cfg Config, span int64)
	modes := []struct {
		name string
		run  runner
	}{
		{"record16_keyed", func(t *testing.T, cfg Config, span int64) {
			crashMatrixCase(t, testRecords(1200, 7), cfg, RecordOps(), span)
		}},
		{"record16_comparator", func(t *testing.T, cfg Config, span int64) {
			ops := RecordOps()
			ops.KeyCodec = nil
			crashMatrixCase(t, testRecords(1200, 7), cfg, ops, span)
		}},
		{"string_keyed", func(t *testing.T, cfg Config, span int64) {
			ops := stringOps()
			ops.KeyCodec = codec.KeyString{}
			crashMatrixCase(t, testStrings(700, 7), cfg, ops, span)
		}},
		{"string_comparator", func(t *testing.T, cfg Config, span int64) {
			crashMatrixCase(t, testStrings(700, 7), cfg, stringOps(), span)
		}},
		// The state a replay has to reach again beyond the records: heap
		// layout under ties with the coin-flip position of the random
		// heuristics, and the FIFO's sliding median for a key-less type.
		{"record16_ties_random", func(t *testing.T, cfg Config, span int64) {
			cfg.TWRS = bufferedTWRS(core.InRandom, core.OutRandom)
			crashMatrixCase(t, tieRecords(1200, 7), cfg, RecordOps(), span)
		}},
		{"string_median", func(t *testing.T, cfg Config, span int64) {
			cfg.TWRS = bufferedTWRS(core.InMedian, core.OutRandom)
			crashMatrixCase(t, testStrings(700, 8), cfg, stringOps(), span)
		}},
	}
	for _, mode := range modes {
		t.Run("raw/"+mode.name, func(t *testing.T) {
			mode.run(t, durableCfg(48), crashSpans["raw/"+mode.name])
		})
	}
	t.Run("raw/record16_keyed/recycled_extent", crashRecycled)
}

// crashRecycled resumes a durable sort whose manifest lost its last run
// records, so the files of those runs lie in the arena where no record
// places them, on a file system that kills the resumed pass mid-write into
// one of their extents, which it reuses to regenerate the runs: the stale
// bytes of an abandoned file now sit under torn new ones, beneath the name
// the lost record committed. The second resume must recover exactly what
// the sums vouch for and finish byte-identical to an uninterrupted sort.
func crashRecycled(t *testing.T) {
	cfg := durableCfg(512) // runs of several blocks
	cfg.Parallelism = 1
	recs := testRecords(12000, 7)
	want, st, wantFiles := durableBaseline(t, recs, cfg, RecordOps())
	base := vfs.NewMemFS()
	if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), base, cfg, RecordOps()); err != nil {
		t.Fatal(err)
	}
	k := len(st.Runs) / 2
	w, err := manifest.Rewrite(base, manifest.Name("sort"), st.Header, st.Runs[:k])
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// The physical file system of a process killed in the middle of a write
	// into a recycled extent of its spill arena: the third write that lands
	// below the arena's end as the pass found it, where extents are reused,
	// tears halfway, and every mutation after it fails.
	below := int64(len(readFile(t, base, "sort"+arenaSuffix)))
	kill := faultfs.New(base, faultfs.Options{FailAfterOps: 2, Torn: true, Match: func(name string, off int64) bool {
		return name == "sort"+arenaSuffix && off < below
	}})
	rcfg := cfg
	rcfg.Resume = true
	if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), kill, rcfg, RecordOps()); !errors.Is(err, faultfs.ErrCrashed) || !kill.Crashed() {
		t.Fatalf("resumed pass: %v, kill fired %v: no write of it tore in a recycled extent", err, kill.Crashed())
	}
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), base, rcfg, RecordOps())
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if got := rset.Stats().RunsRecovered; got < k {
		t.Errorf("second resume recovered %d runs, want at least the %d the manifest kept", got, k)
	}
	if files := runFileSums(t, rset.spill, rset.Runs()); !slices.Equal(files, wantFiles) {
		t.Errorf("resumed run files differ from the uninterrupted sort's")
	}
	if got, _ := mergeToSlice(t, rset); !slices.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
	if names, _ := base.Names(); len(names) != 0 {
		t.Fatalf("leftover files after the merge: %v", names)
	}
}

// crashSpans is what an uninterrupted pass of each crash-matrix cell wrote
// when the matrix was introduced. It only names the subtests: a kill point
// is drawn as an offset into this span, which labels the subtest, and is
// then scaled to the live write total, so the labels stay put when a
// manifest record grows a field while the kills still cover the whole live
// stream, its tail — the manifest commit — included. The ties and median cells are pinned to what they wrote in
// manifest format 2, before run records placed their files in the arena
// and grew; a cell without an entry is labelled by the live offset.
var crashSpans = map[string]int64{
	"raw/record16_keyed": 39412, "raw/record16_comparator": 39380,
	"raw/string_keyed": 25403, "raw/string_comparator": 25373,
	"raw/record16_ties_random": 37905, "raw/string_median": 30543,
}

func crashMatrixCase[T comparable](t *testing.T, vals []T, cfg Config, ops Ops[T], span int64) {
	want, _, wantFiles := durableBaseline(t, vals, cfg, ops)

	// Measure how many bytes an uninterrupted pass writes to the physical
	// file system, arena and manifest, to spread kill points over them.
	probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	if _, err := GenerateRuns[T](stream.NewSliceReader(vals), probe, cfg, ops); err != nil {
		t.Fatalf("probe pass: %v", err)
	}
	total := probe.Written()
	if total <= 0 {
		t.Fatalf("probe wrote %d bytes", total)
	}
	if span == 0 {
		span = total
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		label := rng.Int63n(span)
		kill := 1 + label*total/span // in [1, total]
		torn := i%2 == 0
		t.Run(fmt.Sprintf("kill_%d_torn_%v", 1+label, torn), func(t *testing.T) {
			base := vfs.NewMemFS()
			cfs := faultfs.New(base, faultfs.Options{FailAfterBytes: kill, FailAfterOps: -1, Torn: torn})
			_, genErr := GenerateRuns[T](stream.NewSliceReader(vals), cfs, cfg, ops)
			if genErr != nil && !errors.Is(genErr, faultfs.ErrCrashed) {
				t.Fatalf("crashed pass: %v", genErr)
			}
			if genErr == nil {
				// The kill point landed after the last write; the pass
				// completed. Resume below must then fully recover it.
				if !cfs.Crashed() {
					t.Fatal("generation finished without exhausting the crash budget")
				}
			}
			// "Restart the process": a fresh pass over the surviving base
			// FS, with Resume picking up whatever state is recoverable —
			// including no manifest at all (crash before the header).
			reg := obs.NewRegistry()
			rcfg := cfg
			rcfg.Resume = true
			rcfg.Metrics = reg
			rset, err := GenerateRuns[T](stream.NewSliceReader(vals), base, rcfg, ops)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			stats := rset.Stats()
			if got := reg.Counter(obs.MRunsRecovered, "").Value(); got != int64(stats.RunsRecovered) {
				t.Errorf("%s = %d, Stats.RunsRecovered = %d", obs.MRunsRecovered, got, stats.RunsRecovered)
			}
			if files := runFileSums(t, rset.spill, rset.Runs()); !slices.Equal(files, wantFiles) {
				t.Errorf("resumed run files differ from the uninterrupted sort's")
			}
			got, _ := mergeToSlice(t, rset)
			if !slices.Equal(got, want) {
				t.Fatalf("resumed output differs from uninterrupted sort (recovered %d of %d runs)",
					stats.RunsRecovered, stats.Runs)
			}
		})
	}
}

// partialState crashes a durable record sort at the given input position
// and returns the surviving file system and config.
func partialState(t *testing.T, recs []record.Record, failAt int64) (vfs.FS, Config) {
	t.Helper()
	cfg := durableCfg(64)
	fs := vfs.NewMemFS()
	_, err := GenerateRuns[record.Record](&killedReader[record.Record]{vals: recs, failAt: failAt}, fs, cfg, RecordOps())
	if !errors.Is(err, errSrcKilled) {
		t.Fatalf("partial pass: err = %v, want errSrcKilled", err)
	}
	st, err := manifest.Load(fs, manifest.Name("sort"))
	if err != nil {
		t.Fatalf("partial manifest: %v", err)
	}
	if st.Committed || len(st.Runs) == 0 {
		t.Fatalf("partial state: committed=%v runs=%d", st.Committed, len(st.Runs))
	}
	return fs, cfg
}

// TestResumeAfterCrashMidMerge kills a durable sort in the middle of its
// intermediate merges, which reuse the arena's free extents while the
// committed manifest still names every run: the runs' extents are held, so
// the resume adopts them all, regenerating nothing, and merges to the
// uninterrupted sort's output.
func TestResumeAfterCrashMidMerge(t *testing.T) {
	recs := testRecords(12000, 13)
	cfg := durableCfg(256)
	cfg.FanIn, cfg.Parallelism = 3, 1
	want, st, _ := durableBaseline(t, recs, cfg, RecordOps())
	probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), probe, cfg, RecordOps()); err != nil {
		t.Fatal(err)
	}
	base := vfs.NewMemFS()
	// Generation writes probe.Written() bytes to the physical file system;
	// the intermediate merges write about as many again, into the arena.
	cfs := faultfs.New(base, faultfs.Options{FailAfterBytes: probe.Written() * 3 / 2, FailAfterOps: -1, Torn: true})
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(recs), &out, cfs, cfg, RecordOps()); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("crashed sort: %v, want faultfs.ErrCrashed", err)
	}
	reg := obs.NewRegistry()
	rcfg := cfg
	rcfg.Resume, rcfg.Metrics = true, reg
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), base, rcfg, RecordOps())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got := rset.Stats().RunsRecovered; got != len(st.Runs) {
		t.Errorf("recovered %d of %d committed runs", got, len(st.Runs))
	}
	if got := reg.Counter(obs.MRunsRecovered, "").Value(); got != int64(len(st.Runs)) {
		t.Errorf("%s = %d, want %d", obs.MRunsRecovered, got, len(st.Runs))
	}
	if got, _ := mergeToSlice(t, rset); !slices.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
	if names, _ := base.Names(); len(names) != 0 {
		t.Fatalf("leftover files after the merge: %v", names)
	}
}

// TestResumeTornManifestTail truncates the manifest mid-record — the shape
// a torn append leaves — and verifies resume still works from the shorter
// intact prefix.
func TestResumeTornManifestTail(t *testing.T) {
	recs := testRecords(1200, 3)
	fs, cfg := partialState(t, recs, 900)
	name := manifest.Name("sort")
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := manifest.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the last run record.
	torn := data[:size-9]
	g, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(torn, 0); err != nil {
		t.Fatal(err)
	}
	g.Close()

	want, _, _ := durableBaseline(t, recs, cfg, RecordOps())
	rset, err := Resume[record.Record](stream.NewSliceReader(recs), vfs.FS(fs), cfg, RecordOps())
	if err != nil {
		t.Fatalf("resume over torn manifest: %v", err)
	}
	if max := len(before.Runs) - 1; rset.Stats().RunsRecovered > max {
		t.Errorf("recovered %d runs from a manifest whose last record was torn away (max %d)",
			rset.Stats().RunsRecovered, max)
	}
	got, _ := mergeToSlice(t, rset)
	if !slices.Equal(got, want) {
		t.Fatal("output differs after torn-tail resume")
	}
}

// TestResumeCorruptRunData flips a byte inside a committed spill file: the
// resume must refuse with manifest.ErrChecksum instead of producing output
// from corrupt data.
func TestResumeCorruptRunData(t *testing.T) {
	recs := testRecords(1200, 4)
	fs, cfg := partialState(t, recs, 900)
	st, err := manifest.Load(fs, manifest.Name("sort"))
	if err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, seg := range st.Runs[0].Segments {
		if seg.Records > 0 && !seg.Backward {
			victim = seg.Name
			break
		}
	}
	if victim == "" {
		victim = st.Runs[0].Segments[0].Name + ".0"
	}
	flipByte(t, reopenSpill(t, fs, cfg), victim)
	_, err = Resume[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
	if !errors.Is(err, manifest.ErrChecksum) {
		t.Fatalf("resume over corrupt run data: %v, want manifest.ErrChecksum", err)
	}
}

// TestResumeRefusesChangedInput holds a resume to the input the manifest
// was written against. A durable sort is killed at record 2,000 of 3,000;
// a resume over that input with one record of the recovered prefix changed
// regenerates a run that is not the committed one, and one over a source
// cut short of the last recovered input position cannot regenerate the
// prefix: both are refused before anything is written. A resume with the
// right source then finishes byte-identical to the uninterrupted sort and
// leaves nothing behind once merged.
func TestResumeRefusesChangedInput(t *testing.T) {
	for _, pol := range []policy.Kind{policy.TwoWayRS, policy.Auto} {
		t.Run(pol.String(), func(t *testing.T) {
			recs := testRecords(3000, 1)
			cfg := durableCfg(64)
			cfg.Policy = pol
			want, _, _ := durableBaseline(t, recs, cfg, RecordOps())
			fs := vfs.NewMemFS()
			_, err := GenerateRuns[record.Record](&killedReader[record.Record]{vals: recs, failAt: 2000}, fs, cfg, RecordOps())
			if !errors.Is(err, errSrcKilled) {
				t.Fatalf("killed pass: %v, want errSrcKilled", err)
			}
			st, err := manifest.Load(fs, manifest.Name("sort"))
			if err != nil || len(st.Runs) < 2 {
				t.Fatalf("the killed pass left %v runs: %v", st, err)
			}
			rcfg := cfg
			rcfg.Resume = true
			changed := slices.Clone(recs)
			changed[10].Aux ^= 1 << 40
			rset, err := GenerateRuns[record.Record](stream.NewSliceReader(changed), fs, rcfg, RecordOps())
			if !errors.Is(err, manifest.ErrChecksum) || rset != nil {
				t.Fatalf("resume over a changed input: %v, want manifest.ErrChecksum and no run set", err)
			}
			cut := recs[:st.Runs[len(st.Runs)-1].InputPos-1]
			if rset, err = GenerateRuns[record.Record](stream.NewSliceReader(cut), fs, rcfg, RecordOps()); err == nil || rset != nil {
				t.Fatalf("resume over an input cut before the recovered prefix ends: %v, want an error and no run set", err)
			}
			rset, err = GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, rcfg, RecordOps())
			if err != nil {
				t.Fatalf("resume over the original input: %v", err)
			}
			if got := rset.Stats().RunsRecovered; got != len(st.Runs) {
				t.Errorf("recovered %d runs, want the %d the killed pass committed", got, len(st.Runs))
			}
			if got, _ := mergeToSlice(t, rset); !slices.Equal(got, want) {
				t.Fatal("resumed output differs from the uninterrupted sort's")
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("leftover files after the merge: %v", names)
			}
		})
	}
}

// TestResumeSwitchingAutoManifest pins how a resume treats the manifest of
// an auto pass that changed generators mid-stream, as auto once did: its
// run records name two policies, and its commit record counts the
// switches. Uncommitted, it is refused with manifest.ErrChecksum — the
// replay makes one choice, and each regenerated run must name the
// recorded policy — writing no output and keeping the manifest. Committed,
// it is adopted whole, its switch count ignored.
func TestResumeSwitchingAutoManifest(t *testing.T) {
	recs := testRecords(3000, 1)
	cfg := durableCfg(64)
	cfg.Policy = policy.Auto
	rcfg := cfg
	rcfg.Resume = true
	name := manifest.Name("sort")
	// switched rewrites the manifest on fs with its later half of runs
	// named by a generator the probe did not choose, and returns what it
	// held before.
	switched := func(t *testing.T, fs vfs.FS) *manifest.State {
		t.Helper()
		st, err := manifest.Load(fs, name)
		if err != nil || len(st.Runs) < 2 {
			t.Fatalf("the pass left %v runs: %v", st, err)
		}
		runs := slices.Clone(st.Runs)
		for i := len(runs) / 2; i < len(runs); i++ {
			runs[i].Policy = policy.Quick.String()
		}
		w, err := manifest.Rewrite(fs, name, st.Header, runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}

	t.Run("uncommitted", func(t *testing.T) {
		fs := vfs.NewMemFS()
		if _, err := GenerateRuns[record.Record](&killedReader[record.Record]{vals: recs, failAt: 2000}, fs, cfg, RecordOps()); !errors.Is(err, errSrcKilled) {
			t.Fatalf("killed pass: %v, want errSrcKilled", err)
		}
		st := switched(t, fs)
		var out stream.SliceWriter[record.Record]
		if _, err := Sort[record.Record](stream.NewSliceReader(recs), &out, fs, rcfg, RecordOps()); !errors.Is(err, manifest.ErrChecksum) || len(out.Vals) != 0 {
			t.Fatalf("resume: %v with %d records written, want manifest.ErrChecksum and none", err, len(out.Vals))
		}
		if kept, err := manifest.Load(fs, name); err != nil || len(kept.Runs) != len(st.Runs) {
			t.Fatalf("the refused resume left %v: %v, want the manifest's %d runs", kept, err, len(st.Runs))
		}
	})

	t.Run("committed", func(t *testing.T) {
		want, _, _ := durableBaseline(t, recs, cfg, RecordOps())
		fs := vfs.NewMemFS()
		// A pass that died after its commit, before its merge.
		if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps()); err != nil {
			t.Fatal(err)
		}
		st := switched(t, fs)
		payload := fmt.Sprintf(`{"t":"c","c":{"runs":%d,"records":%d,"switches":1}}`, len(st.Runs), st.Commit.Records)
		writeFile(t, fs, name, fmt.Appendf(readFile(t, fs, name), "%08x %s\n", crc32.ChecksumIEEE([]byte(payload)), payload))
		rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, rcfg, RecordOps())
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if got := rset.Stats().RunsRecovered; got != len(st.Runs) {
			t.Errorf("recovered %d runs, want all %d committed", got, len(st.Runs))
		}
		if got, _ := mergeToSlice(t, rset); !slices.Equal(got, want) {
			t.Fatal("resumed output differs from the uninterrupted sort's")
		}
	})
}

// flipByte inverts one byte in the middle of a file.
func flipByte(t *testing.T, fs vfs.FS, name string) {
	t.Helper()
	data := readFile(t, fs, name)
	if len(data) == 0 {
		t.Fatalf("%s is empty", name)
	}
	data[len(data)/2] ^= 0xff
	writeFile(t, fs, name, data)
}

// TestResumeConfigMismatch resumes a durable sort under a changed codec or
// generation shape, and a spill directory whose manifest names a spill
// layout this build does not write: each must be refused with a typed
// manifest.ErrMismatch, never silently combined with incompatible state.
func TestResumeConfigMismatch(t *testing.T) {
	recs := testRecords(1200, 5)
	fs, cfg := partialState(t, recs, 900)

	t.Run("codec", func(t *testing.T) {
		_, err := Resume[string](stream.NewSliceReader([]string{"a"}), fs, cfg, stringOps())
		var mm *manifest.MismatchError
		if !errors.As(err, &mm) || mm.Field != "codec" {
			t.Fatalf("codec mismatch: %v", err)
		}
	})
	// refused relabels the manifest's spill layout as comp, wants the
	// resume refused with a compression mismatch naming it, and puts the
	// header back.
	refused := func(t *testing.T, comp string) {
		name := manifest.Name("sort")
		st, err := manifest.Load(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		rewrite := func(h manifest.Header) {
			w, err := manifest.Rewrite(fs, name, h, st.Runs)
			if err == nil {
				err = w.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		h := st.Header
		h.Compression = comp
		rewrite(h)
		defer rewrite(st.Header)
		_, err = Resume[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
		var mm *manifest.MismatchError
		if !errors.As(err, &mm) || mm.Field != "compression" || mm.Want != comp || mm.Got != "raw" {
			t.Fatalf("resume over a %q manifest: %v", comp, err)
		}
	}
	// The framed layouts, retired for the one checked raw layout: their
	// blocks carry frames the reader no longer parses.
	t.Run("compression", func(t *testing.T) {
		refused(t, "none")
		refused(t, "flate")
	})
	t.Run("generation", func(t *testing.T) {
		bad := cfg
		bad.Memory = cfg.Memory * 2
		_, err := Resume[record.Record](stream.NewSliceReader(recs), fs, bad, RecordOps())
		if !errors.Is(err, manifest.ErrMismatch) {
			t.Fatalf("generation mismatch: %v", err)
		}
	})
	// A spill directory left by a durable sort from before the gzip framing
	// was retired.
	t.Run("retired gzip", func(t *testing.T) { refused(t, "gzip") })
}

// durableHeaderGolden is the manifest header a durable sort at
// durableCfg(48) writes. The header is what Resume checks a spill directory
// against, so a change to it strands every directory a released version
// left behind: it may change only with the manifest format.
var durableHeaderGolden = map[string]manifest.Header{
	"raw": {
		Version: 5, Prefix: "sort", Codec: "codec.Record16", KeyCodec: "codec.KeyRecord16",
		Compression: "raw", Generation: durableGenerationGolden,
	},
}

const durableGenerationGolden = "policy=2wrs memory=48 elem=16 page=4096 pages_per_file=4 " +
	"twrs={Memory:48 Setup:both BufferFrac:0.02 Input:mean Output:random Seed:0}"

// TestDurableHeaderGolden holds the header a durable sort writes to
// durableHeaderGolden: spill layout, codecs and the generation fingerprint.
func TestDurableHeaderGolden(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		_, st, _ := durableBaseline(t, testRecords(1200, 7), durableCfg(48), RecordOps())
		if st.Header != durableHeaderGolden["raw"] {
			t.Errorf("manifest header\n got %#v\nwant %#v", st.Header, durableHeaderGolden["raw"])
		}
	})
}

// TestDurableRejectsUnstableConfigs used to pin the one policy a durable
// sort refused up front, the adaptive auto, whose probe and switch history
// lived outside every checkpoint. A resume replays it like any other
// generator now, so the pin is the other way round: no policy is refused —
// each sorts durably and leaves nothing behind.
func TestDurableRejectsUnstableConfigs(t *testing.T) {
	recs := testRecords(1000, 6)
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b record.Record) int { return cmp.Compare(a.Key, b.Key) })
	for _, kind := range policy.Kinds {
		fs := vfs.NewMemFS()
		rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, Config{Policy: kind, Memory: 64, Manifest: true}, RecordOps())
		if err != nil {
			t.Fatalf("durable sort refused the %v policy: %v", kind, err)
		}
		got, stats := mergeToSlice(t, rset)
		if stats.Policy != kind.String() || !slices.EqualFunc(got, want, func(a, b record.Record) bool { return a.Key == b.Key }) {
			t.Errorf("durable %v sort: policy %q, output sorted = %v", kind, stats.Policy, record.IsSorted(got))
		}
		if names, _ := fs.Names(); len(names) != 0 {
			t.Errorf("durable %v sort left %v behind", kind, names)
		}
	}
}

// TestDurableDiscard exercises RunSet.Discard: after discarding a completed
// durable sort — or a sort resumed from a crash — the backing file system
// holds neither the manifest nor any spill file, and a second Discard is a
// clean no-op.
func TestDurableDiscard(t *testing.T) {
	recs := testRecords(1200, 8)
	t.Run("raw/completed", func(t *testing.T) {
		fs := vfs.NewMemFS()
		rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, durableCfg(64), RecordOps())
		if err != nil {
			t.Fatalf("GenerateRuns: %v", err)
		}
		assertDiscardClean(t, rset, fs)
	})
	t.Run("raw/resumed", func(t *testing.T) {
		fs, cfg := partialState(t, recs, 900)
		rset, err := Resume[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		assertDiscardClean(t, rset, fs)
	})
}

func assertDiscardClean[T any](t *testing.T, rset *RunSet[T], fs vfs.FS) {
	t.Helper()
	if err := rset.Discard(); err != nil {
		t.Fatalf("Discard: %v", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name == manifest.Name(rset.cfg.Prefix) || name == rset.cfg.Prefix+arenaSuffix {
			t.Errorf("Discard left %s behind", name)
		}
	}
	if err := rset.Discard(); err != nil {
		t.Errorf("second Discard: %v", err)
	}
}
