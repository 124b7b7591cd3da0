package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

func randPayload(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// readIn reads r to its end through a window of the given size.
func readIn(r io.Reader, window int) ([]byte, error) {
	var got []byte
	buf := make([]byte, window)
	for {
		n, err := r.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
	}
}

// flip inverts one bit of the byte at off of the named file, below any
// backend.
func flip(t *testing.T, fs vfs.FS, name string, off int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cell [1]byte
	if _, err := f.ReadAt(cell[:], off); err != nil {
		t.Fatal(err)
	}
	cell[0] ^= 0x10
	if _, err := f.WriteAt(cell[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestForwardStreamRoundTrip(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		b := NewRaw(vfs.NewMemFS())
		blocks := [][]byte{randPayload(4096, 0), randPayload(4096, 1), randPayload(100, 3), randPayload(7, 2)}
		w, err := b.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, blk := range blocks {
			if err := w.Append(blk); err != nil {
				t.Fatal(err)
			}
			want = append(want, blk...)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 99, 4096, 5000} {
			r, err := b.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := readIn(r, window)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("window %d: round trip lost bytes: got %d, want %d", window, len(got), len(want))
			}
		}
		st := b.Stats()
		if st.RawBytesWritten != int64(len(want)) || st.RawBytesRead != 4*int64(len(want)) {
			t.Fatalf("accounting: wrote %d read %d, want %d and 4 × that", st.RawBytesWritten, st.RawBytesRead, len(want))
		}
		if st.StoredBytesWritten != st.RawBytesWritten || st.StoredBytesRead != st.RawBytesRead {
			t.Fatalf("stored bytes %d/%d differ from raw %d/%d", st.StoredBytesWritten, st.StoredBytesRead, st.RawBytesWritten, st.RawBytesRead)
		}
		if st.BlocksWritten != int64(len(blocks)) {
			t.Fatalf("blocks written = %d, want %d", st.BlocksWritten, len(blocks))
		}
		if st.VerifyFailures != 0 {
			t.Fatalf("verify failures = %d on clean data", st.VerifyFailures)
		}
	})
}

// writeChain writes the chain file "c" the way runio's backward writer
// does — data pages tail-first, a run of them in one call, then the
// partial tail and the header — and returns its header, its start position
// and its payload in ascending order.
func writeChain(t *testing.T, b Backend) (hdr []byte, startPos int, want []byte) {
	t.Helper()
	const pageSize, pages = 128, 5
	pw, err := b.CreatePaged("c", pageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	data := randPayload(3*pageSize, 4) // pages 2, 3 and 4
	if err := pw.WritePage(4, data[2*pageSize:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.WritePage(2, data[:2*pageSize]); err != nil {
		t.Fatal(err)
	}
	tail := randPayload(40, 5)
	if startPos, err = pw.WriteTail(1, tail); err != nil {
		t.Fatal(err)
	}
	hdr = bytes.Repeat([]byte{7}, 32)
	if err := pw.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	return hdr, startPos, append(tail, data...)
}

// readChain reads "c" back: its header, then its payload from the tail on
// through a window of the given size.
func readChain(b Backend, hdrLen, startPos, window int) (hdr, payload []byte, err error) {
	pr, err := b.OpenPaged("c")
	if err != nil {
		return nil, nil, err
	}
	defer pr.Close()
	hdr = make([]byte, hdrLen)
	if err := pr.ReadHeader(hdr); err != nil {
		return nil, nil, err
	}
	if err := pr.Seek(1, startPos, 128, 5); err != nil {
		return nil, nil, err
	}
	payload, err = readIn(pr, window)
	return hdr, payload, err
}

func TestPagedRoundTrip(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		b := NewRaw(vfs.NewMemFS())
		hdr, startPos, want := writeChain(t, b)
		if startPos != 128-40 {
			t.Fatalf("start position %d, want the tail right-aligned at %d", startPos, 128-40)
		}
		for _, window := range []int{1, 50, 128, 1000} {
			gotHdr, got, err := readChain(b, len(hdr), startPos, window)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotHdr, hdr) {
				t.Fatal("header round trip mismatch")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("window %d: paged round trip: got %d bytes, want %d", window, len(got), len(want))
			}
		}
		if n := b.Stats().VerifyFailures; n != 0 {
			t.Fatalf("%d verify failures on a clean chain", n)
		}
	})
}

// TestChecksumFlipDetected flips one bit of a spill file below the backend
// and reads it back: a forward file through windows of one byte, of one
// byte under the block size and of one byte over it, and a chain file's
// tail page (which starts at a non-zero start position) and header. Each
// read fails with ErrChecksum naming the file and counts one verify
// failure. A file the backend did not write — one a resumed sort adopts —
// reads back unchecked, flipped bit and all.
func TestChecksumFlipDetected(t *testing.T) {
	const block = 512
	forward := func(t *testing.T, b Backend) []byte {
		w, err := b.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for k := 0; k < 3; k++ {
			p := randPayload(block, int64(k))
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
			want = append(want, p...)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return want
	}
	for _, window := range []int{1, block - 1, block + 1} {
		t.Run(fmt.Sprintf("forward_window_%d", window), func(t *testing.T) {
			fs := vfs.NewMemFS()
			b := NewRaw(fs)
			forward(t, b)
			flip(t, fs, "f", block+100)
			r, err := b.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := readIn(r, window)
			r.Close()
			if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "f block 1 ") {
				t.Fatalf("error = %v, want ErrChecksum naming f's block 1", err)
			}
			// At most the corrupt block's bytes and one window reach the
			// caller before the check fires.
			if len(got) >= 2*block+window {
				t.Fatalf("%d bytes read before the error", len(got))
			}
			if n := b.Stats().VerifyFailures; n != 1 {
				t.Fatalf("verify failures = %d, want 1", n)
			}
		})
	}
	for name, off := range map[string]int64{"chain_tail": 128 + (128 - 40) + 5, "chain_page": 3*128 + 9, "chain_header": 3} {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			b := NewRaw(fs)
			hdr, startPos, _ := writeChain(t, b)
			flip(t, fs, "c", off)
			_, _, err := readChain(b, len(hdr), startPos, 50)
			if !errors.Is(err, ErrChecksum) || !strings.Contains(err.Error(), "c block ") {
				t.Fatalf("error = %v, want ErrChecksum naming c", err)
			}
			if n := b.Stats().VerifyFailures; n != 1 {
				t.Fatalf("verify failures = %d, want 1", n)
			}
		})
	}
	t.Run("adopted", func(t *testing.T) {
		fs := vfs.NewMemFS()
		want := forward(t, NewRaw(fs))
		hdr, startPos, wantChain := writeChain(t, NewRaw(fs))
		flip(t, fs, "f", block+100)
		flip(t, fs, "c", 128+(128-40)+5)
		adopter := NewRaw(fs)
		r, err := adopter.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		got, err := readIn(r, block)
		r.Close()
		if err != nil || len(got) != len(want) || bytes.Equal(got, want) {
			t.Fatalf("adopted forward file: %d bytes, error %v; want all of them, unchecked and altered", len(got), err)
		}
		_, gotChain, err := readChain(adopter, len(hdr), startPos, 50)
		if err != nil || len(gotChain) != len(wantChain) || bytes.Equal(gotChain, wantChain) {
			t.Fatalf("adopted chain file: %d bytes, error %v; want all of them, unchecked and altered", len(gotChain), err)
		}
	})
}

// TestChecksFollowTheName holds the checks to the file now under a name:
// a Create over a live name, and a Remove, drop the old file's checks, so a
// file written there afterwards by other means reads unchecked rather than
// against them.
func TestChecksFollowTheName(t *testing.T) {
	fs := vfs.NewMemFS()
	b := NewRaw(fs)
	for _, drop := range []func() error{
		func() error { w, err := b.Create("f"); _ = w.Close(); return err },
		func() error { return b.Remove("f") },
	} {
		w, _ := b.Create("f")
		w.Append(randPayload(512, 1))
		w.Close()
		if err := drop(); err != nil {
			t.Fatal(err)
		}
		other, _ := fs.Create("f")
		other.WriteAt(randPayload(512, 2), 0)
		other.Close()
		r, _ := b.Open("f")
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil || !bytes.Equal(got, randPayload(512, 2)) {
			t.Fatalf("file rewritten below the backend: %d bytes, error %v", len(got), err)
		}
	}
}

// TestConcurrentFilesKeepTheirChecks writes and reads files of one to 30
// blocks from several goroutines at once, as lanes and merge workers do —
// short files keep their checks in the writer, long ones pass scratch
// slices between writers — and rewrites every name once: each file reads
// back clean against its own checks, and a bit flipped in each after that
// is caught.
func TestConcurrentFilesKeepTheirChecks(t *testing.T) {
	fs := vfs.NewMemFS()
	b := NewRaw(fs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				name := fmt.Sprintf("g%d-%d", g, k%20)
				blocks := 1 + (g*7+k*5)%30
				w, err := b.Create(name)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < blocks; i++ {
					w.Append(randPayload(100+i, int64(k*31+i)))
				}
				w.Close()
				r, _ := b.Open(name)
				if _, err := readIn(r, 77); err != nil {
					t.Errorf("%s, %d blocks: %v", name, blocks, err)
				}
				r.Close()
			}
		}()
	}
	wg.Wait()
	names, _ := fs.Names()
	for _, name := range names {
		flip(t, fs, name, 50)
		r, _ := b.Open(name)
		if _, err := readIn(r, 64); !errors.Is(err, ErrChecksum) {
			t.Errorf("%s flipped: %v, want ErrChecksum", name, err)
		}
		r.Close()
	}
	if len(names) != 80 {
		t.Fatalf("%d files, want 80", len(names))
	}
}

// TestPageRunCountsEveryPage writes one chain file page by page and again
// three pages per WritePage — seven data pages, a partial tail and the
// header: the files are byte-identical and so is the accounting,
// BlocksWritten counting pages either way; only the number of calls
// differs, a run of pages being one write. Both read back clean.
func TestPageRunCountsEveryPage(t *testing.T) {
	const pageSize, pages = 128, 9
	data := randPayload((pages-2)*pageSize, 1)
	hdr := bytes.Repeat([]byte{7}, 32)
	var files [2][]byte
	var stats [2]IOStats
	var writes [2]int64
	for i, run := range []int{1, 3} {
		fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
		b := NewRaw(fs)
		pw, err := b.CreatePaged("c", pageSize, pages)
		if err != nil {
			t.Fatal(err)
		}
		for top := pages - 1; top >= 2 && err == nil; top -= run {
			lo := max(2, top-run+1)
			err = pw.WritePage(lo, data[(lo-2)*pageSize:(top-1)*pageSize])
		}
		startPos := 0
		if err == nil {
			startPos, err = pw.WriteTail(1, randPayload(40, 1))
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
		stats[i], writes[i] = b.Stats(), fs.Calls(faultfs.Write)
		f, _ := fs.Open("c")
		n, _ := f.Size()
		files[i] = make([]byte, n)
		f.ReadAt(files[i], 0)
		f.Close()
		pr, _ := b.OpenPaged("c")
		err = pr.ReadHeader(make([]byte, len(hdr)))
		if err == nil {
			err = pr.Seek(1, startPos, pageSize, pages)
		}
		if err == nil {
			_, err = readIn(pr, 100)
		}
		pr.Close()
		if err != nil {
			t.Fatalf("runs of %d pages: read back: %v", run, err)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("a chain file written in runs of pages differs from one written page by page")
	}
	// Seven data pages, the tail and the header.
	if stats[0] != stats[1] || stats[0].BlocksWritten != 7+1+1 {
		t.Fatalf("page by page %+v, in runs %+v; want equal, 9 blocks written", stats[0], stats[1])
	}
	if want := int64(1 + 3 + 1); writes[1] != want {
		t.Fatalf("%d writes in runs of pages, want %d", writes[1], want)
	}
}

// TestTruncatedBlockIsCorrupt cuts a file a few bytes into its last block
// and inside it: both read as ErrCorrupt once the bytes run out, after
// every byte before the cut, and count as a verify failure.
func TestTruncatedBlockIsCorrupt(t *testing.T) {
	for _, cut := range []int{5, 120} {
		fs := vfs.NewMemFS()
		b := NewRaw(fs)
		w, _ := b.Create("f")
		w.Append(randPayload(512, 1))
		w.Append(randPayload(512, 2))
		w.Close()
		whole, _ := fs.Open("f")
		data := make([]byte, 512+cut)
		whole.ReadAt(data, 0)
		whole.Close()
		short, _ := fs.Create("f")
		short.WriteAt(data, 0)
		short.Close()

		r, _ := b.Open("f")
		got, err := readIn(r, 64)
		r.Close()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: error = %v, want ErrCorrupt", cut, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("cut %d: %d bytes before the error, want the %d before the cut", cut, len(got), len(data))
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
