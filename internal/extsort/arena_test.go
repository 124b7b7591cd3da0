package extsort

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/manifest"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// reopenSpill is the arena a durable record sort under cfg left on fs,
// holding every file its manifest places, as Resume reopens it.
func reopenSpill(t *testing.T, fs vfs.FS, cfg Config) *vfs.Arena {
	t.Helper()
	st, err := manifest.Load(fs, manifest.Name("sort"))
	if err != nil {
		t.Fatal(err)
	}
	a := vfs.NewArena(fs, "sort"+arenaSuffix, runio.BlockBytes(cfg.Memory*record.Size))
	if err := a.Adopt(placed(st.Runs)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// removalPrints is a view of the spill files, set at spillView, that
// fingerprints every file — name, length and bytes — at the moment it is
// removed. Over a spill arena it also
// keeps the bound the arena is held to: after every write, the arena is no
// larger than the most the live files have ever held in whole extents (a
// file's last extent counts in full), plus the extents of one write in
// flight per open writer — two, as a write that does not start on an
// extent boundary spans two.
type removalPrints struct {
	vfs.FS
	mu     sync.Mutex
	prints map[string]string
	sizes  map[string]int64 // live files by name
	open   int              // writers not yet closed
	peak   int64            // the most the live files held, in whole extents
	over   int64            // the most the arena exceeded peak by, in extents per open writer
}

type printedFile struct {
	vfs.File
	p    *removalPrints
	name string
}

func (p *removalPrints) Create(name string) (vfs.File, error) {
	f, err := p.FS.Create(name)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.sizes[name] = 0
	p.open++
	p.mu.Unlock()
	return &printedFile{File: f, p: p, name: name}, nil
}

func (f *printedFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	p := f.p
	a, ok := p.FS.(*vfs.Arena)
	if !ok {
		return n, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sizes[f.name] = max(p.sizes[f.name], off+int64(n))
	e := int64(a.ExtentSize())
	live := int64(0)
	for _, size := range p.sizes {
		live += (size + e - 1) / e * e
	}
	p.peak = max(p.peak, live)
	if size := a.Size(); size > p.peak {
		p.over = max(p.over, (size-p.peak+e*int64(p.open)-1)/(e*int64(p.open)))
	}
	return n, err
}

func (f *printedFile) Close() error {
	f.p.mu.Lock()
	f.p.open--
	f.p.mu.Unlock()
	return f.File.Close()
}

func (p *removalPrints) Remove(name string) error {
	if f, err := p.FS.Open(name); err == nil {
		size, _ := f.Size()
		data := make([]byte, size)
		n, _ := f.ReadAt(data, 0)
		f.Close()
		h := sha256.New()
		h.Write([]byte(name))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(size)))
		h.Write(data[:n])
		p.mu.Lock()
		p.prints[name] = hex.EncodeToString(h.Sum(nil))
		delete(p.sizes, name)
		p.mu.Unlock()
	}
	return p.FS.Remove(name)
}

// digest folds the fingerprints in name order.
func (p *removalPrints) digest() string {
	names := make([]string, 0, len(p.prints))
	for n := range p.prints {
		names = append(names, n)
	}
	slices.Sort(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n + " " + p.prints[n] + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wholeSortGolden is removalPrints' digest of every spill file of the sort
// TestSpillFilesAsRemoved runs in the raw layout, recorded when each run and
// merge output was a file of its own on a MemFS.
const wholeSortGolden = "6433ae8c532edfb221184f6f9ebb29ff862f1ec929af155d1555eaa64f94dfc6"

// TestSpillFilesAsRemoved runs a quick sort of 64 runs at fan-in 4 — three
// merge passes — on one and two workers, and fingerprints each spill file
// as the sort removes it, through a file system between the spill backend
// and the arena that stores the sort's files. The files, their names and
// their bytes are the sort's format, recorded when every spill file was a
// file of its own; where they are stored is not. The arena never holds more
// than its files do, in whole extents, plus one write per open writer.
func TestSpillFilesAsRemoved(t *testing.T) {
	const memory = 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 64 * memory, Seed: 29})
	defer func(v func(vfs.FS) vfs.FS) { spillView = v }(spillView)
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("raw/parallelism=%d", par), func(t *testing.T) {
			prints := &removalPrints{prints: map[string]string{}, sizes: map[string]int64{}}
			spillView = func(fs vfs.FS) vfs.FS {
				prints.FS = fs
				return prints
			}
			fs := vfs.NewMemFS()
			cfg := Config{Policy: policy.Quick, Memory: memory, FanIn: 4, Parallelism: par}
			var out stream.SliceWriter[record.Record]
			stats, err := Sort(stream.NewSliceReader(recs), &out, fs, cfg, RecordOps())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Runs < 60 || stats.MergePasses < 3 {
				t.Fatalf("%d runs in %d passes: the fixture needs at least 60 runs and 3 passes", stats.Runs, stats.MergePasses)
			}
			if len(out.Vals) != len(recs) || !record.IsSorted(out.Vals) {
				t.Fatal("output is not the sorted input")
			}
			if names, _ := fs.Names(); len(names) != 0 {
				t.Fatalf("files left behind: %v", names)
			}
			if got := prints.digest(); got != wholeSortGolden {
				t.Errorf("spill files as removed hash to %s, want %s (%d files)", got, wholeSortGolden, len(prints.prints))
			}
			if _, ok := prints.FS.(*vfs.Arena); !ok {
				t.Fatalf("the sort spilled into %T, not an arena", prints.FS)
			}
			if prints.over > 2 {
				t.Errorf("the arena outgrew its live files' %d bytes by %d extents per open writer", prints.peak, prints.over)
			}
		})
	}
}

// TestSortCreatesOneFile counts what a spill_merge-shaped sort — quick runs,
// fan-in 4, several merge passes — asks of the physical file system it is
// given: one create and one remove, the spill arena's, at one and two
// workers, and under the simulated disk, which sits above the arena. A durable sort adds its manifest: two creates.
func TestSortCreatesOneFile(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 40 * 500, Seed: 31})
	for _, simulated := range []bool{false, true} {
		for _, durable := range []bool{false, true} {
			for _, par := range []int{1, 2} {
				fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
				cfg := Config{Policy: policy.Quick, Memory: 500, FanIn: 4, Parallelism: par, Manifest: durable}
				if simulated {
					cfg.Disk = iosim.NewDisk(iosim.Defaults2010())
				}
				var out stream.SliceWriter[record.Record]
				stats, err := Sort(stream.NewSliceReader(recs), &out, fs, cfg, RecordOps())
				if err != nil {
					t.Fatal(err)
				}
				creates, removes := fs.Calls(faultfs.Create), fs.Calls(faultfs.Remove)
				wantCreates := int64(1)
				if durable {
					wantCreates = 2
				}
				if creates > wantCreates || removes > wantCreates {
					t.Errorf("disk=%v durable=%v parallelism=%d: %d runs in %d passes created %d files and removed %d, want at most %d of each",
						simulated, durable, par, stats.Runs, stats.MergePasses, creates, removes, wantCreates)
				}
				if names, _ := fs.Names(); len(names) != 0 {
					t.Errorf("disk=%v durable=%v parallelism=%d: %v left behind", simulated, durable, par, names)
				}
			}
		}
	}
}
