package extsort

import (
	"errors"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// dupHeavy folds keys to few distinct values and zeroes the payload: the
// compressible spill stream of the storage benchmarks.
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
// backward chain layouts both exercise the framing — under every backend
// and checks the output, the accounting, and that no spill file survives.
func TestSortAcrossStorageBackends(t *testing.T) {
	recs := dupHeavy(30000)
	want := sortedCopy(recs)
	// "gzip" was a backend until PR 22; the driver now refuses the name
	// like any unknown one, before it creates a file.
	for _, comp := range []string{"raw", "none", "flate", "gzip"} {
		t.Run(comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(500)
			cfg.Storage = storage.Config{Compression: comp}
			var out record.SliceWriter
			stats, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
			if comp == "gzip" {
				if names, _ := fs.Names(); err == nil || len(names) != 0 {
					t.Fatalf("retired compression: err = %v, files %v; want it refused up front", err, names)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Vals) != len(want) {
				t.Fatalf("got %d records, want %d", len(out.Vals), len(want))
			}
			for i := range want {
				if out.Vals[i] != want[i] {
					t.Fatalf("record %d = %v, want %v", i, out.Vals[i], want[i])
				}
			}
			if stats.IO.VerifyFailures != 0 {
				t.Fatalf("verify failures on clean data: %d", stats.IO.VerifyFailures)
			}
			if stats.IO.RawBytesWritten == 0 || stats.IO.RawBytesRead == 0 {
				t.Fatalf("no I/O accounted: %+v", stats.IO)
			}
			if comp == "flate" {
				if stats.IO.StoredBytesWritten*2 > stats.IO.RawBytesWritten {
					t.Fatalf("%s stored %d of %d raw bytes: expected >= 2x reduction on dup-heavy data",
						comp, stats.IO.StoredBytesWritten, stats.IO.RawBytesWritten)
				}
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("spill files left behind: %v", names)
			}
			if !strings.Contains(stats.Storage, comp) && comp != "raw" {
				t.Fatalf("Stats.Storage = %q, want mention of %q", stats.Storage, comp)
			}
		})
	}
}

// TestCorruptSpillSurfacesChecksumError flips one byte of a spilled block
// between the two phases: the merge must fail with a checksum error, never
// produce silently wrong output.
func TestCorruptSpillSurfacesChecksumError(t *testing.T) {
	cases := []struct {
		name, comp string
		off        int64 // the byte of a run file's first block to damage
		poke       func(byte) byte
	}{
		// Past the frame header, well into the payload.
		{"none", "none", 20 + 16, func(b byte) byte { return b ^ 0xa5 }},
		{"flate", "flate", 20 + 16, func(b byte) byte { return b ^ 0xa5 }},
		// A run file as the retired gzip framing left it: the frame's codec
		// byte says 2, which names no payload codec any more.
		{"gzip", "flate", 4, func(byte) byte { return 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			// Classic RS keeps every run in a single forward file, so any
			// spill file is a plain block stream we can poke a byte into.
			cfg.Policy = policy.RS
			cfg.Storage.Compression = tc.comp
			recs := dupHeavy(20000)
			rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
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
			if _, err := f.ReadAt(cell[:], tc.off); err != nil {
				t.Fatal(err)
			}
			cell[0] = tc.poke(cell[0])
			if _, err := f.WriteAt(cell[:], tc.off); err != nil {
				t.Fatal(err)
			}
			f.Close()

			var out record.SliceWriter
			_, err = rset.Merge(&out)
			if err == nil {
				t.Fatal("merge of corrupted spill data succeeded")
			}
			if !errors.Is(err, storage.ErrChecksum) && !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("error = %v, want a storage checksum/corruption error", err)
			}
			if rset.Stats().IO.VerifyFailures == 0 {
				t.Fatal("verify failure not accounted")
			}
			rset.Discard()
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("spill files left after Discard: %v", names)
			}
		})
	}
}

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
// mid-generation and a cancellation mid-merge — under every backend and
// requires that no spill file survives the failed sort.
func TestNoSpillLeaksOnErrors(t *testing.T) {
	recs := dupHeavy(20000)
	for _, comp := range []string{"raw", "flate"} {
		t.Run("midgen/"+comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			cfg.Storage = storage.Config{Compression: comp}
			var out record.SliceWriter
			_, err := Sort(&failAfterReader{recs: recs}, &out, fs, cfg, RecordOps())
			if !errors.Is(err, errMidStream) {
				t.Fatalf("error = %v, want injected failure", err)
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("spill files left after mid-generation failure: %v", names)
			}
		})
		t.Run("midmerge/"+comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			cfg.Storage = storage.Config{Compression: comp}
			cfg.FanIn = 2          // force several merge passes
			var calls atomic.Int64 // Cancel is polled from parallel merge goroutines
			cfg.Cancel = func() error {
				if calls.Add(1) > 3 {
					return errMidStream
				}
				return nil
			}
			var out record.SliceWriter
			_, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
			if !errors.Is(err, errMidStream) {
				t.Fatalf("error = %v, want injected cancellation", err)
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("spill files left after mid-merge cancellation: %v", names)
			}
		})
	}
}

// TestDiscardSweepsAllBackends generates runs (2WRS: forward files plus
// backward chains) on every backend and checks Discard leaves nothing.
func TestDiscardSweepsAllBackends(t *testing.T) {
	recs := dupHeavy(20000)
	for _, comp := range []string{"raw", "none", "flate"} {
		t.Run(comp, func(t *testing.T) {
			fs := vfs.NewMemFS()
			cfg := Recommended(300)
			cfg.Storage = storage.Config{Compression: comp}
			rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
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
}

// TestStatsIOCoversBothPhases checks the run-generation snapshot grows into
// the full two-phase accounting after the merge.
func TestStatsIOCoversBothPhases(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Recommended(300)
	cfg.Storage.Compression = "flate"
	recs := dupHeavy(20000)
	rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	genIO := rset.Stats().IO
	if genIO.RawBytesWritten == 0 || genIO.RawBytesRead != 0 {
		t.Fatalf("after generation: %+v", genIO)
	}
	var out record.SliceWriter
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
	cfg.Storage.Compression = "flate"
	var out record.SliceWriter
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
