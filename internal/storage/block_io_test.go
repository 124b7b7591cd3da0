package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// block returns payload behind FrameHeadroom spare bytes, as AppendBlock
// takes it.
func block(payload []byte) []byte {
	return append(make([]byte, FrameHeadroom, FrameHeadroom+len(payload)), payload...)
}

// TestBlockIsOneWriteAndOneRead holds the framed backends to one file-system
// call per block each way — in place and through plain Append, lent and
// copied out — and the two write paths to the same bytes.
func TestBlockIsOneWriteAndOneRead(t *testing.T) {
	const blocks, size = 9, 4096
	for _, comp := range compressions {
		var files [2][]byte
		for i, inPlace := range []bool{false, true} {
			fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
			b := mustBackend(t, fs, Config{Compression: string(comp)})
			w, err := b.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for k := 0; k < blocks; k++ {
				p := randPayload(size, int64(k))
				if k%2 == 0 {
					p = dupPayload(size)
				}
				want = append(want, p...)
				if inPlace {
					err = AppendBlock(w, block(p))
				} else {
					err = w.Append(p)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if writes := fs.Calls(faultfs.Write); writes != blocks {
				t.Fatalf("%s in place %v: %d writes for %d blocks", comp, inPlace, writes, blocks)
			}
			f, _ := fs.Open("f")
			n, _ := f.Size()
			files[i] = make([]byte, n)
			f.ReadAt(files[i], 0)
			f.Close()

			for _, lend := range []bool{false, true} {
				before := fs.Calls(faultfs.Read)
				r, err := b.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				var got []byte
				if lend {
					for {
						p, err := r.(BlockLender).NextBlock(size)
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, p...)
					}
				} else if got, err = io.ReadAll(r); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s in place %v, lent %v: read back %d bytes, want %d", comp, inPlace, lend, len(got), len(want))
				}
				// One read per block, at most one more to size the window
				// when the first block outgrows the caller's hint, and one
				// to find the end.
				if reads := fs.Calls(faultfs.Read) - before; reads > blocks+2 {
					t.Fatalf("%s in place %v, lent %v: %d reads for %d blocks", comp, inPlace, lend, reads, blocks)
				}
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("%s: a block appended in place is stored differently from one appended plainly", comp)
		}
	}
}

// TestStoredBytesMatchesABlock holds Config.StoredBytes, which sizes a
// sort's arena extents, to what a block of random (incompressible) bytes
// takes on the file system under every compression: exactly, since a flate
// block that would not shrink is stored.
func TestStoredBytesMatchesABlock(t *testing.T) {
	const size = 4096
	for _, comp := range append([]Compression{Raw}, compressions...) {
		fs := vfs.NewMemFS()
		cfg := Config{Compression: string(comp)}
		w, err := mustBackend(t, fs, cfg).Create("f")
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendBlock(w, block(randPayload(size, 1))); err != nil {
			t.Fatal(err)
		}
		w.Close()
		f, _ := fs.Open("f")
		n, _ := f.Size()
		f.Close()
		if want := cfg.StoredBytes(size); n != int64(want) {
			t.Errorf("%s: a %d-byte block takes %d bytes, StoredBytes says %d", comp, size, n, want)
		}
	}
}

// TestPageRunCountsEveryPage writes one chain file page by page and again
// three pages per WritePage — seven data pages, a partial tail and the
// header — on every framing: the files are byte-identical and so is the
// accounting, BlocksWritten counting pages either way; only the number of
// calls differs, and on every framing a run of pages is one write.
func TestPageRunCountsEveryPage(t *testing.T) {
	const pageSize, pages = 128, 9
	var data []byte
	for i := 2; i < pages; i++ {
		data = append(data, randPayload(pageSize, int64(i))...)
		if i%2 == 0 {
			copy(data[len(data)-pageSize:], dupPayload(pageSize))
		}
	}
	hdr := bytes.Repeat([]byte{7}, 32)
	for _, comp := range all {
		var files [2][]byte
		var stats [2]IOStats
		var writes [2]int64
		for i, run := range []int{1, 3} {
			fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
			b := mustBackend(t, fs, Config{Compression: string(comp)})
			pw, err := b.CreatePaged("c", pageSize, pages)
			if err != nil {
				t.Fatal(err)
			}
			for top := pages - 1; top >= 2 && err == nil; top -= run {
				lo := max(2, top-run+1)
				err = pw.WritePage(lo, data[(lo-2)*pageSize:(top-1)*pageSize])
			}
			if err == nil {
				_, err = pw.WriteTail(1, randPayload(40, 1))
			}
			if err == nil {
				err = pw.WriteHeader(hdr)
			}
			if cerr := pw.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			f, _ := fs.Open("c")
			n, _ := f.Size()
			files[i] = make([]byte, n)
			f.ReadAt(files[i], 0)
			f.Close()
			stats[i], writes[i] = b.Stats(), fs.Calls(faultfs.Write)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("%s: a chain file written in runs of pages differs from one written page by page", comp)
		}
		// Seven data pages, the tail and the header.
		if stats[0] != stats[1] || stats[0].BlocksWritten != 7+1+1 {
			t.Fatalf("%s: page by page %+v, in runs %+v; want equal, 9 blocks written", comp, stats[0], stats[1])
		}
		if want := int64(1 + 3 + 1); writes[1] != want {
			t.Fatalf("%s: %d writes in runs of pages, want %d", comp, writes[1], want)
		}
	}
}

// TestReadsFilesOfTheOldWriter writes a forward file the way the backend
// used to — frame and payload in two writes each, blocks of several sizes —
// and reads it back through windows smaller than, equal to and larger than
// the blocks, lent and copied, mixed.
func TestReadsFilesOfTheOldWriter(t *testing.T) {
	fs := vfs.NewMemFS()
	f, err := fs.Create("old")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var off int64
	for k, size := range []int{4096, 4096, 100, 9000, 4096, 1} {
		p := randPayload(size, int64(k))
		want = append(want, p...)
		var hdr [frameSize]byte
		encodeFrame(hdr[:], frame{codec: codecStored, rawLen: size, compLen: size, crc: crc32.ChecksumIEEE(p)})
		f.WriteAt(hdr[:], off)
		f.WriteAt(p, off+frameSize)
		off += int64(frameSize + size)
	}
	f.Close()
	b := mustBackend(t, fs, Config{Compression: string(None)})
	for _, hint := range []int{0, 64, 4096, 1 << 16} {
		r, err := b.Open("old")
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		small := make([]byte, 1000)
		for turn := 0; ; turn++ {
			var p []byte
			if turn%2 == 0 {
				p, err = r.(BlockLender).NextBlock(hint)
			} else {
				var n int
				n, err = r.Read(small)
				p = small[:n]
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, p...)
		}
		r.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("hint %d: read back %d bytes, want %d", hint, len(got), len(want))
		}
	}
	if n := b.Stats().VerifyFailures; n != 0 {
		t.Fatalf("%d verify failures on a clean file", n)
	}
}

// TestTruncatedBlockIsCorrupt cuts a framed file inside its last frame and
// inside its last payload: both read as ErrCorrupt after the whole blocks
// before the cut, and count as verify failures.
func TestTruncatedBlockIsCorrupt(t *testing.T) {
	for _, cut := range []int{5, frameSize + 100} {
		fs := vfs.NewMemFS()
		b := mustBackend(t, fs, Config{Compression: string(None)})
		w, _ := b.Create("f")
		w.Append(randPayload(512, 1))
		w.Append(randPayload(512, 2))
		w.Close()
		whole, _ := fs.Open("f")
		data := make([]byte, frameSize+512+cut)
		whole.ReadAt(data, 0)
		whole.Close()
		short, _ := fs.Create("f")
		short.WriteAt(data, 0)
		short.Close()

		r, _ := b.Open("f")
		got, err := io.ReadAll(r)
		r.Close()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: error = %v, want ErrCorrupt", cut, err)
		}
		if !bytes.Equal(got, randPayload(512, 1)) {
			t.Fatalf("cut %d: %d bytes before the error, want the first block", cut, len(got))
		}
		if b.Stats().VerifyFailures != 1 {
			t.Fatalf("cut %d: verify failures = %d, want 1", cut, b.Stats().VerifyFailures)
		}
	}
}

// TestPoolReusesAndBounds checks the pool's three promises: a returned
// block goes out again to the next request of its size, the idle blocks it
// keeps fit the budget with the oldest dropped first, and Peak is the most
// that was ever out.
func TestPoolReusesAndBounds(t *testing.T) {
	var nilPool *Pool
	nilPool.Put(nilPool.Get(10)) // a nil pool allocates and drops
	if nilPool.Peak() != 0 || nilPool.Budget() != 0 {
		t.Fatal("nil pool keeps accounts")
	}

	p := &Pool{}
	a := p.Get(100)
	p.Put(a)
	if b := p.Get(100); &b[0] == &a[0] {
		t.Fatal("a pool without a budget kept a block")
	}
	p = &Pool{}
	p.Reserve(250)
	p.Reserve(100) // the largest budget declared stands
	if p.Budget() != 250 {
		t.Fatalf("budget = %d, want 250", p.Budget())
	}
	a, b, c := p.Get(100), p.Get(100), p.Get(120)
	if p.Peak() != 320 {
		t.Fatalf("peak = %d, want 320", p.Peak())
	}
	p.Put(a)
	p.Put(c)
	if got := p.Get(100); &got[0] != &a[0] {
		t.Fatal("a returned block of the right size was not reused")
	}
	if got := p.Get(110); &got[0] == &c[0] {
		t.Fatal("a block of another size was handed out")
	}
	p.Put(a) // idle: c, a
	p.Put(b) // 320 idle bytes are over the budget: c, the oldest, goes
	if p.idle != 200 || len(p.free) != 2 || &p.free[0][0] != &a[0] {
		t.Fatalf("idle = %d in %d blocks, want a and b kept", p.idle, len(p.free))
	}
	if PoolOf(NewRaw(vfs.NewMemFS())) == nil {
		t.Fatal("a backend of this package carries no pool")
	}
}
