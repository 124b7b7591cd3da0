package extsort

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/manifest"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// dupHeavy folds keys to few distinct values and zeroes the payload.
func dupHeavy(n int) []record.Record {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 7})
	for i := range recs {
		recs[i].Key %= 64
		recs[i].Aux = 0
	}
	return recs
}

func sortedCopy(recs []record.Record) []record.Record {
	out := append([]record.Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return record.Less(out[i], out[j]) })
	return out
}

// TestSortAcrossStorageBackends runs the full sort — 2WRS, so forward and
// backward chain files are both written and checked — on the one backend
// and checks the output, the accounting, and that no spill file survives.
func TestSortAcrossStorageBackends(t *testing.T) {
	recs := dupHeavy(30000)
	want := sortedCopy(recs)
	t.Run("raw", func(t *testing.T) {
		fs := vfs.NewMemFS()
		var out stream.SliceWriter[record.Record]
		stats, err := Sort(stream.NewSliceReader(recs), &out, fs, Recommended(500), RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Vals, want) {
			t.Fatalf("got %d records, not the %d of the sorted input", len(out.Vals), len(want))
		}
		if stats.IO.VerifyFailures != 0 {
			t.Fatalf("verify failures on clean data: %d", stats.IO.VerifyFailures)
		}
		if stats.IO.RawBytesWritten == 0 || stats.IO.RawBytesRead == 0 {
			t.Fatalf("no I/O accounted: %+v", stats.IO)
		}
		if stats.IO.StoredBytesWritten != stats.IO.RawBytesWritten || stats.IO.StoredBytesRead != stats.IO.RawBytesRead {
			t.Fatalf("stored bytes differ from raw: %+v", stats.IO)
		}
		if names, _ := fs.Names(); len(names) != 0 {
			t.Fatalf("spill files left behind: %v", names)
		}
		if stats.Storage != "raw" {
			t.Fatalf("Stats.Storage = %q, want raw", stats.Storage)
		}
	})
}

// TestCorruptSpillSurfacesChecksumError flips one bit of a spilled block at
// rest, between the two phases: the merge must fail with a checksum error,
// never produce silently wrong output, and Discard must still sweep every
// file.
func TestCorruptSpillSurfacesChecksumError(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Recommended(300)
	// Classic RS keeps every run in a single forward file.
	cfg.Policy = policy.RS
	rset, err := GenerateRuns(stream.NewSliceReader(dupHeavy(20000)), fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.Names()
	if err != nil || len(names) == 0 {
		t.Fatalf("no spill files: %v, %v", names, err)
	}
	f, err := fs.Open(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var cell [1]byte
	if _, err := f.ReadAt(cell[:], 16); err != nil {
		t.Fatal(err)
	}
	cell[0] ^= 0x20
	if _, err := f.WriteAt(cell[:], 16); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out stream.SliceWriter[record.Record]
	if _, err = rset.Merge(&out); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("merge of corrupted spill data: %v, want a storage checksum error", err)
	}
	if rset.Stats().IO.VerifyFailures == 0 {
		t.Fatal("verify failure not accounted")
	}
	rset.Discard()
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("spill files left after Discard: %v", names)
	}
}

// spillSizes records the size of every spill file as the sort removes it.
type spillSizes struct {
	vfs.FS
	mu    sync.Mutex
	sizes map[string]int64
}

func (s *spillSizes) Remove(name string) error {
	if f, err := s.FS.Open(name); err == nil {
		size, _ := f.Size()
		f.Close()
		s.mu.Lock()
		s.sizes[name] = size
		s.mu.Unlock()
	}
	return s.FS.Remove(name)
}

// TestBitFlipFailsSort flips one bit of what a read of one spill file
// returns — as a failing disk or bus would, the file itself intact — in a
// sort at the defaults: in a forward run file's first block and its last
// byte, and in a backward chain file's last page and its header. Each must
// fail the sort with ErrChecksum and leave no file behind.
func TestBitFlipFailsSort(t *testing.T) {
	recs := testRecords(20000, 9)
	cfg := Recommended(500)
	defer func(v func(vfs.FS) vfs.FS) { spillView = v }(spillView)
	clean := &spillSizes{sizes: map[string]int64{}}
	spillView = func(fs vfs.FS) vfs.FS {
		clean.FS = fs
		return clean
	}
	var out stream.SliceWriter[record.Record]
	if _, err := Sort(stream.NewSliceReader(recs), &out, vfs.NewMemFS(), cfg, RecordOps()); err != nil {
		t.Fatal(err)
	}
	// The largest forward run file, of several blocks, and the first chain.
	var forward, chain string
	for name, size := range clean.sizes {
		isRun := strings.HasSuffix(name, "-s1") || strings.HasSuffix(name, "-s3")
		if isRun && (forward == "" || size > clean.sizes[forward] || size == clean.sizes[forward] && name < forward) {
			forward = name
		}
		if strings.HasSuffix(name, ".0") && (chain == "" || name < chain) {
			chain = name
		}
	}
	if forward == "" || clean.sizes[forward] <= runio.DefaultPageSize || chain == "" {
		t.Fatalf("no forward run file of several pages or no chain file among %v", clean.sizes)
	}
	for _, tc := range []struct {
		name, file string
		byte       int64 // the byte whose bit 2 reads flipped
	}{
		{"forward/payload", forward, 5},
		{"forward/last_byte", forward, clean.sizes[forward] - 1},
		{"chain/payload", chain, clean.sizes[chain] - 1},
		{"chain/header", chain, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spillView = func(fs vfs.FS) vfs.FS {
				return faultfs.New(fs, faultfs.Options{FlipBit: tc.byte*8 + 2 + 1, Match: func(name string, _ int64) bool {
					return name == tc.file
				}})
			}
			fs := vfs.NewMemFS()
			var out stream.SliceWriter[record.Record]
			_, err := Sort(stream.NewSliceReader(recs), &out, fs, cfg, RecordOps())
			if !errors.Is(err, storage.ErrChecksum) {
				t.Fatalf("%s of %s flipped: Sort returned %v after %d of %d records, want a storage checksum error",
					tc.name, tc.file, err, len(out.Vals), len(recs))
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("files left behind: %v", names)
			}
		})
	}
}

// TestAdoptedRunCorruptionNamesTheSpill flips a key bit of a run a durable
// Resume adopted, in what the merge reads of it: an adopted run's files were
// summed against the manifest at the resume and are read without block
// checks, so the merge finds the record out of order, and the error names
// spill corruption as a cause — beside the key codec, since the resumed sort
// runs keyed, whether it regenerates part of its input or adopts the whole
// committed run set (whose manifest names the key codec). The resume itself
// reads the file unflipped, as its content sums require.
func TestAdoptedRunCorruptionNamesTheSpill(t *testing.T) {
	recs := testRecords(20000, 9)
	for _, tc := range []struct {
		name   string
		killAt int64                         // input position the first pass dies at; 0: it commits
		key    codec.KeyCodec[record.Record] // the resume's key codec
		keyed  bool                          // the merge runs keyed: the error must name the key codec too
	}{
		{"committed", 0, codec.KeyRecord16{}, true},
		// A codec of another type than the header names is not armed: the
		// committed runs merge on the comparator.
		{"committed_other_key_codec", 0, otherKeyRecord16{}, false},
		{"partial", 15000, codec.KeyRecord16{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableCfg(500)
			fs := vfs.NewMemFS()
			var src stream.Reader[record.Record] = stream.NewSliceReader(recs)
			if tc.killAt > 0 {
				src = &killedReader[record.Record]{vals: recs, failAt: tc.killAt}
			}
			// A first pass that ends before any merge: its manifest and arena
			// stay for Resume.
			if _, err := GenerateRuns(src, fs, cfg, RecordOps()); err != nil && !errors.Is(err, errSrcKilled) {
				t.Fatal(err)
			}
			st, err := manifest.Load(fs, manifest.Name(cfg.Resolved().Prefix))
			if err != nil {
				t.Fatal(err)
			}
			// The largest forward file the manifest commits.
			var victim runio.Segment
			for _, run := range st.Runs {
				for _, seg := range run.Segments {
					if !seg.Backward && seg.Records > victim.Records {
						victim = seg
					}
				}
			}
			if victim.Records < 2 {
				t.Fatal("no forward run file of several records")
			}
			var armed atomic.Bool
			defer func(v func(vfs.FS) vfs.FS) { spillView = v }(spillView)
			spillView = func(fs vfs.FS) vfs.FS {
				return faultfs.New(fs, faultfs.Options{FlipBit: 5*8 + 2 + 1, Match: func(name string, _ int64) bool {
					return armed.Load() && name == victim.Name
				}})
			}
			cfg.Resume = true
			ops := RecordOps()
			ops.KeyCodec = tc.key
			rset, err := GenerateRuns(stream.NewSliceReader(recs), fs, cfg, ops)
			if err != nil {
				t.Fatal(err)
			}
			if rset.Stats().RunsRecovered != len(st.Runs) || rset.Stats().Keyed != tc.keyed {
				t.Fatalf("resume adopted %d of %d committed runs, keyed %v; want keyed %v", rset.Stats().RunsRecovered, len(st.Runs), rset.Stats().Keyed, tc.keyed)
			}
			armed.Store(true)
			var out stream.SliceWriter[record.Record]
			_, err = rset.Merge(&out)
			if !errors.Is(err, runio.ErrOutOfOrder) || !errors.Is(err, errAdoptedOrder) || tc.keyed != errors.Is(err, errKeyOrder) {
				t.Fatalf("merge over a flipped adopted run: %v; want an order error naming the adopted spill files (and the key codec: %v)", err, tc.keyed)
			}
		})
	}
}

// otherKeyRecord16 orders as codec.KeyRecord16 under another type name.
type otherKeyRecord16 struct{ codec.KeyRecord16 }

// failAfterReader yields records until its budget runs out, then fails,
// simulating a source error (or cancellation) mid-generation.
type failAfterReader struct {
	recs []record.Record
	n    int
}

var errMidStream = errors.New("injected mid-stream failure")

func (r *failAfterReader) Read() (record.Record, error) {
	if r.n >= len(r.recs) {
		return record.Record{}, errMidStream
	}
	r.n++
	return r.recs[r.n-1], nil
}

// TestNoSpillLeaksOnErrors drives both failure classes — a source error
// mid-generation and a cancellation mid-merge — and requires that no spill
// file survives the failed sort.
func TestNoSpillLeaksOnErrors(t *testing.T) {
	recs := dupHeavy(20000)
	t.Run("midgen/raw", func(t *testing.T) {
		fs := vfs.NewMemFS()
		cfg := Recommended(300)
		var out stream.SliceWriter[record.Record]
		_, err := Sort(&failAfterReader{recs: recs}, &out, fs, cfg, RecordOps())
		if !errors.Is(err, errMidStream) {
			t.Fatalf("error = %v, want injected failure", err)
		}
		if names, _ := fs.Names(); len(names) != 0 {
			t.Fatalf("spill files left after mid-generation failure: %v", names)
		}
	})
	t.Run("midmerge/raw", func(t *testing.T) {
		fs := vfs.NewMemFS()
		cfg := Recommended(300)
		cfg.FanIn = 2          // force several merge passes
		var calls atomic.Int64 // Cancel is polled from parallel merge goroutines
		cfg.Cancel = func() error {
			if calls.Add(1) > 3 {
				return errMidStream
			}
			return nil
		}
		var out stream.SliceWriter[record.Record]
		_, err := Sort(stream.NewSliceReader(recs), &out, fs, cfg, RecordOps())
		if !errors.Is(err, errMidStream) {
			t.Fatalf("error = %v, want injected cancellation", err)
		}
		if names, _ := fs.Names(); len(names) != 0 {
			t.Fatalf("spill files left after mid-merge cancellation: %v", names)
		}
	})
}

// TestDiscardSweepsAllBackends generates runs (2WRS: forward files plus
// backward chains) and checks Discard leaves nothing.
func TestDiscardSweepsAllBackends(t *testing.T) {
	recs := dupHeavy(20000)
	t.Run("raw", func(t *testing.T) {
		fs := vfs.NewMemFS()
		cfg := Recommended(300)
		rset, err := GenerateRuns(stream.NewSliceReader(recs), fs, cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		if names, _ := rset.spill.Names(); len(names) == 0 {
			t.Fatal("no spill files generated")
		}
		if err := rset.Discard(); err != nil {
			t.Fatal(err)
		}
		if names, _ := fs.Names(); len(names) != 0 {
			t.Fatalf("files left after Discard: %v", names)
		}
	})
}

// TestStatsIOCoversBothPhases checks the run-generation snapshot grows into
// the full two-phase accounting after the merge.
func TestStatsIOCoversBothPhases(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Recommended(300)
	recs := dupHeavy(20000)
	rset, err := GenerateRuns(stream.NewSliceReader(recs), fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	genIO := rset.Stats().IO
	if genIO.RawBytesWritten == 0 || genIO.RawBytesRead != 0 {
		t.Fatalf("after generation: %+v", genIO)
	}
	var out stream.SliceWriter[record.Record]
	stats, err := rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IO.RawBytesRead == 0 {
		t.Fatalf("merge read nothing: %+v", stats.IO)
	}
	if stats.IO.RawBytesWritten < genIO.RawBytesWritten {
		t.Fatalf("merge accounting went backwards: %+v then %+v", genIO, stats.IO)
	}
}

// TestDiscardSparesUnrelatedFiles pins that the Discard sweep recognises
// only names the sort's Namer produced: a user file that merely shares the
// prefix must survive a failed sort in a shared directory.
func TestDiscardSparesUnrelatedFiles(t *testing.T) {
	fs := vfs.NewMemFS()
	for _, name := range []string{"sort-mydata.rec", "sort-data", "unrelated", "sort-12-x"} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("precious"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	cfg := Recommended(300)
	var out stream.SliceWriter[record.Record]
	_, err := Sort(&failAfterReader{recs: dupHeavy(20000)}, &out, fs, cfg, RecordOps())
	if !errors.Is(err, errMidStream) {
		t.Fatalf("error = %v, want injected failure", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sort-12-x", "sort-data", "sort-mydata.rec", "unrelated"}
	if len(names) != len(want) {
		t.Fatalf("names after failed sort = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names after failed sort = %v, want %v", names, want)
		}
	}
}
