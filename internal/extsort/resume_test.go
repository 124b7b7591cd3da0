package extsort

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/manifest"
	"repro/internal/manifest/crashfs"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
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

// durableBaseline runs an uninterrupted Manifest-mode sort and returns the
// sorted output plus the committed manifest state (captured before Merge
// removes the manifest).
func durableBaseline[T any](t *testing.T, vals []T, cfg Config, ops Ops[T]) ([]T, *manifest.State) {
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
	want, _ := mergeToSlice(t, rset)
	if _, err := fs.Open(manifest.Name(rset.cfg.Prefix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest survived a successful merge: %v", err)
	}
	return want, st
}

// TestResumeAtEveryRunBoundary kills generation at every run boundary of a
// durable sort and resumes: the output must be byte-identical to the
// uninterrupted sort, and exactly the boundaries committed before the kill
// must be recovered rather than regenerated.
func TestResumeAtEveryRunBoundary(t *testing.T) {
	recs := testRecords(1500, 1)
	cfg := durableCfg(64)
	want, st := durableBaseline(t, recs, cfg, RecordOps())
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
			fs := vfs.NewMemFS()
			_, err := GenerateRuns[record.Record](&killedReader[record.Record]{vals: recs, failAt: failAt}, fs, cfg, RecordOps())
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
			rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, rcfg, RecordOps())
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
			got, _ := mergeToSlice(t, rset)
			if !slices.Equal(got, want) {
				t.Fatalf("resumed output differs from uninterrupted sort (len %d vs %d)", len(got), len(want))
			}
		})
	}
}

// TestResumeCrashMatrix sweeps seeded crash points — including torn writes
// — across storage backends, codec widths and keyed/comparator modes, with
// the crash free to land mid-run-file or mid-manifest-append. Every
// combination must resume to output byte-identical to the uninterrupted
// sort.
func TestResumeCrashMatrix(t *testing.T) {
	backends := []struct {
		name string
		sc   storage.Config
	}{
		{"raw", storage.Config{}},
		{"block_flate", storage.Config{Compression: "flate"}},
		{"tiered", storage.Config{MemoryBudgetBytes: 1 << 14}},
	}
	type runner func(t *testing.T, sc storage.Config)
	modes := []struct {
		name string
		run  runner
	}{
		{"record16_keyed", func(t *testing.T, sc storage.Config) {
			crashMatrixCase(t, testRecords(1200, 7), sc, RecordOps())
		}},
		{"record16_comparator", func(t *testing.T, sc storage.Config) {
			ops := RecordOps()
			ops.KeyCodec = nil
			crashMatrixCase(t, testRecords(1200, 7), sc, ops)
		}},
		{"string_keyed", func(t *testing.T, sc storage.Config) {
			ops := stringOps()
			ops.KeyCodec = codec.KeyString{}
			crashMatrixCase(t, testStrings(700, 7), sc, ops)
		}},
		{"string_comparator", func(t *testing.T, sc storage.Config) {
			crashMatrixCase(t, testStrings(700, 7), sc, stringOps())
		}},
	}
	for _, be := range backends {
		for _, mode := range modes {
			t.Run(be.name+"/"+mode.name, func(t *testing.T) {
				mode.run(t, be.sc)
			})
		}
	}
}

func crashMatrixCase[T comparable](t *testing.T, vals []T, sc storage.Config, ops Ops[T]) {
	cfg := durableCfg(48)
	cfg.Storage = sc
	want, _ := durableBaseline(t, vals, cfg, ops)

	// Measure how many bytes an uninterrupted pass writes to the backing
	// FS, to spread kill points over the real write stream.
	probe := crashfs.New(vfs.NewMemFS(), crashfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	if _, err := GenerateRuns[T](stream.NewSliceReader(vals), probe, cfg, ops); err != nil {
		t.Fatalf("probe pass: %v", err)
	}
	total := probe.Written()
	if total <= 0 {
		t.Fatalf("probe wrote %d bytes", total)
	}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5; i++ {
		kill := 1 + rng.Int63n(total)
		torn := i%2 == 0
		t.Run(fmt.Sprintf("kill_%d_torn_%v", kill, torn), func(t *testing.T) {
			base := vfs.NewMemFS()
			cfs := crashfs.New(base, crashfs.Options{FailAfterBytes: kill, FailAfterOps: -1, Torn: torn})
			_, genErr := GenerateRuns[T](stream.NewSliceReader(vals), cfs, cfg, ops)
			if genErr != nil && !errors.Is(genErr, crashfs.ErrCrashed) {
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
func partialState(t *testing.T, recs []record.Record, failAt int64, sc storage.Config) (vfs.FS, Config) {
	t.Helper()
	cfg := durableCfg(64)
	cfg.Storage = sc
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

// diesBeforeCarryRemoval is the file system of a process killed right after
// its manifest commit: generateDurable's only remaining file operations are
// the carry-snapshot removals, and none of them lands.
type diesBeforeCarryRemoval struct{ vfs.FS }

func (f diesBeforeCarryRemoval) Remove(name string) error {
	if strings.HasSuffix(name, "-carry") {
		return crashfs.ErrCrashed
	}
	return f.FS.Remove(name)
}

// TestResumeCommittedSweepsCarries crashes exactly between the manifest
// commit and the carry removals. Resume adopts the committed runs without
// restarting any generator, so it must sweep the orphaned snapshots itself:
// a committed manifest still names them, and nothing later would.
func TestResumeCommittedSweepsCarries(t *testing.T) {
	recs := testRecords(3000, 5)
	cfg := durableCfg(128)
	want, _ := durableBaseline(t, recs, cfg, RecordOps())

	base := vfs.NewMemFS()
	if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), diesBeforeCarryRemoval{base}, cfg, RecordOps()); err != nil {
		t.Fatalf("GenerateRuns: %v", err)
	}
	names, err := base.Names()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(names, func(n string) bool { return strings.HasSuffix(n, "-carry") }) {
		t.Fatalf("the killed pass left no carry snapshot behind: %v", names)
	}

	rcfg := cfg
	rcfg.Resume = true
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), base, rcfg, RecordOps())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, st := mergeToSlice(t, rset)
	if st.RunsRecovered != st.Runs || st.Runs == 0 {
		t.Fatalf("recovered %d of %d runs, want the whole committed set", st.RunsRecovered, st.Runs)
	}
	if !slices.Equal(got, want) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
	if names, _ := base.Names(); len(names) != 0 {
		t.Fatalf("leftover files after resume and merge: %v", names)
	}
}

// TestResumeTornManifestTail truncates the manifest mid-record — the shape
// a torn append leaves — and verifies resume still works from the shorter
// intact prefix.
func TestResumeTornManifestTail(t *testing.T) {
	recs := testRecords(1200, 3)
	fs, cfg := partialState(t, recs, 900, storage.Config{})
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

	want, _ := durableBaseline(t, recs, cfg, RecordOps())
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
	fs, cfg := partialState(t, recs, 900, storage.Config{})
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
	flipByte(t, fs, victim)
	_, err = Resume[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
	if !errors.Is(err, manifest.ErrChecksum) {
		t.Fatalf("resume over corrupt run data: %v, want manifest.ErrChecksum", err)
	}
}

// flipByte inverts one byte in the middle of a file.
func flipByte(t *testing.T, fs vfs.FS, name string) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	size, err := f.Size()
	if err != nil || size == 0 {
		t.Fatalf("size of %s: %d, %v", name, size, err)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data[size/2] ^= 0xff
	g, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	g.Close()
}

// TestResumeConfigMismatch resumes a durable sort under a changed codec,
// compression or generation shape: each must be refused with a typed
// manifest.ErrMismatch, never silently combined with incompatible state.
func TestResumeConfigMismatch(t *testing.T) {
	recs := testRecords(1200, 5)
	fs, cfg := partialState(t, recs, 900, storage.Config{})

	t.Run("codec", func(t *testing.T) {
		_, err := Resume[string](stream.NewSliceReader([]string{"a"}), fs, cfg, stringOps())
		var mm *manifest.MismatchError
		if !errors.As(err, &mm) || mm.Field != "codec" {
			t.Fatalf("codec mismatch: %v", err)
		}
	})
	t.Run("compression", func(t *testing.T) {
		bad := cfg
		bad.Storage.Compression = "flate"
		_, err := Resume[record.Record](stream.NewSliceReader(recs), fs, bad, RecordOps())
		var mm *manifest.MismatchError
		if !errors.As(err, &mm) || mm.Field != "compression" {
			t.Fatalf("compression mismatch: %v", err)
		}
	})
	t.Run("generation", func(t *testing.T) {
		bad := cfg
		bad.Memory = cfg.Memory * 2
		_, err := Resume[record.Record](stream.NewSliceReader(recs), fs, bad, RecordOps())
		if !errors.Is(err, manifest.ErrMismatch) {
			t.Fatalf("generation mismatch: %v", err)
		}
	})
}

// TestDurableRejectsUnstableConfigs pins the configs a durable sort must
// refuse up front: the adaptive auto policy (whose boundaries are not a
// pure function of input+config) and in-memory sorts with no run files.
func TestDurableRejectsUnstableConfigs(t *testing.T) {
	recs := testRecords(100, 6)
	cfg := Config{Policy: policy.Auto, Memory: 64, Manifest: true}
	if _, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps()); err == nil {
		t.Error("durable sort accepted the auto policy")
	}
}

// TestDurableDiscard exercises RunSet.Discard across all storage backends:
// after discarding a completed durable sort — or a sort resumed from a
// crash — the backing file system holds neither the manifest nor any spill
// or carry file, and a second Discard is a clean no-op.
func TestDurableDiscard(t *testing.T) {
	backends := []struct {
		name string
		sc   storage.Config
	}{
		{"raw", storage.Config{}},
		{"block_flate", storage.Config{Compression: "flate"}},
		{"tiered", storage.Config{MemoryBudgetBytes: 1 << 14}},
	}
	recs := testRecords(1200, 8)
	for _, be := range backends {
		t.Run(be.name+"/completed", func(t *testing.T) {
			cfg := durableCfg(64)
			cfg.Storage = be.sc
			fs := vfs.NewMemFS()
			rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
			if err != nil {
				t.Fatalf("GenerateRuns: %v", err)
			}
			assertDiscardClean(t, rset, fs)
		})
		t.Run(be.name+"/resumed", func(t *testing.T) {
			fs, cfg := partialState(t, recs, 900, be.sc)
			rset, err := Resume[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			assertDiscardClean(t, rset, fs)
		})
	}
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
		if name == manifest.Name(rset.cfg.Prefix) || isSpillName(rset.cfg.Prefix, name) {
			t.Errorf("Discard left %s behind", name)
		}
	}
	if err := rset.Discard(); err != nil {
		t.Errorf("second Discard: %v", err)
	}
}

// TestPersistAndOpenRunSet covers the cross-process handoff: one "process"
// generates and persists runs, a second opens the committed manifest with
// OpenRunSet — regenerating nothing — and merges to the same output.
func TestPersistAndOpenRunSet(t *testing.T) {
	recs := testRecords(1500, 9)
	cfg := durableCfg(64)
	want, st := durableBaseline(t, recs, cfg, RecordOps())

	fs := vfs.NewMemFS()
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, cfg, RecordOps())
	if err != nil {
		t.Fatalf("GenerateRuns: %v", err)
	}
	name, err := rset.Persist()
	if err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if name != manifest.Name("sort") {
		t.Errorf("Persist name = %q", name)
	}

	reg := obs.NewRegistry()
	ocfg := cfg
	ocfg.Metrics = reg
	opened, err := OpenRunSet[record.Record](fs, ocfg, RecordOps())
	if err != nil {
		t.Fatalf("OpenRunSet: %v", err)
	}
	stats := opened.Stats()
	if stats.RunsRecovered != len(st.Runs) || stats.Runs != len(st.Runs) {
		t.Errorf("recovered %d of %d runs, want all %d", stats.RunsRecovered, stats.Runs, len(st.Runs))
	}
	if got := reg.Counter(obs.MRunsRecovered, "").Value(); got != int64(len(st.Runs)) {
		t.Errorf("%s = %d, want %d", obs.MRunsRecovered, got, len(st.Runs))
	}
	got, _ := mergeToSlice(t, opened)
	if !slices.Equal(got, want) {
		t.Fatal("opened run set merged to different output")
	}
}

func TestOpenRunSetRequiresCommit(t *testing.T) {
	recs := testRecords(1200, 10)
	fs, cfg := partialState(t, recs, 900, storage.Config{})
	_, err := OpenRunSet[record.Record](fs, cfg, RecordOps())
	if !errors.Is(err, manifest.ErrNotCommitted) {
		t.Fatalf("OpenRunSet on uncommitted state: %v, want ErrNotCommitted", err)
	}
	if _, err := OpenRunSet[record.Record](vfs.NewMemFS(), cfg, RecordOps()); !errors.Is(err, manifest.ErrNoManifest) {
		t.Fatalf("OpenRunSet on empty FS: %v, want ErrNoManifest", err)
	}
}

func TestPersistRequiresManifest(t *testing.T) {
	recs := testRecords(500, 11)
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), vfs.NewMemFS(),
		Config{Policy: policy.TwoWayRS, Memory: 64}, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	defer rset.Discard()
	if _, err := rset.Persist(); err == nil {
		t.Fatal("Persist succeeded on a non-durable run set")
	}
}
