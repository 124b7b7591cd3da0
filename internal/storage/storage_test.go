package storage

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// compressions lists every framed mode (everything but Raw).
var compressions = []Compression{None, Flate}

// all lists every backend mode.
var all = []Compression{Raw, None, Flate}

func mustBackend(t *testing.T, fs vfs.FS, cfg Config) Backend {
	t.Helper()
	b, err := New(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseCompression(t *testing.T) {
	for in, want := range map[string]Compression{
		"": Raw, "raw": Raw, "none": None, "flate": Flate, "deflate": Flate,
		"FLATE": Flate,
	} {
		got, err := ParseCompression(in)
		if err != nil || got != want {
			t.Errorf("ParseCompression(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// gzip was a second deflate framing until PR 22; its name is rejected
	// like any unknown one, with the list of valid names.
	for _, name := range []string{"zstd", "gzip", "gz"} {
		if _, err := ParseCompression(name); err == nil || !strings.Contains(err.Error(), strings.Join(Compressions(), ", ")) {
			t.Errorf("ParseCompression(%s) = %v, want an error listing the valid names", name, err)
		}
	}
	if _, err := New(vfs.NewMemFS(), Config{Compression: "bogus"}); err == nil {
		t.Error("New with bogus compression should fail")
	}
}

// dupPayload is highly compressible; randPayload is not.
func dupPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i % 16)
	}
	return p
}

func randPayload(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func TestForwardStreamRoundTrip(t *testing.T) {
	for _, comp := range all {
		t.Run(string(comp), func(t *testing.T) {
			fs := vfs.NewMemFS()
			b := mustBackend(t, fs, Config{Compression: string(comp)})
			blocks := [][]byte{dupPayload(4096), randPayload(4096, 1), dupPayload(100), randPayload(7, 2)}
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
			r, err := b.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip lost bytes: got %d, want %d", len(got), len(want))
			}
			st := b.Stats()
			if st.RawBytesWritten != int64(len(want)) || st.RawBytesRead != int64(len(want)) {
				t.Fatalf("raw accounting: wrote %d read %d, want %d", st.RawBytesWritten, st.RawBytesRead, len(want))
			}
			if st.BlocksWritten != int64(len(blocks)) {
				t.Fatalf("blocks written = %d, want %d", st.BlocksWritten, len(blocks))
			}
			if st.VerifyFailures != 0 {
				t.Fatalf("verify failures = %d on clean data", st.VerifyFailures)
			}
			if comp == Raw && st.StoredBytesWritten != st.RawBytesWritten {
				t.Fatalf("raw backend stored %d != raw %d", st.StoredBytesWritten, st.RawBytesWritten)
			}
		})
	}
}

func TestCompressionShrinksDups(t *testing.T) {
	b := mustBackend(t, vfs.NewMemFS(), Config{Compression: string(Flate)})
	w, _ := b.Create("f")
	for i := 0; i < 64; i++ {
		if err := w.Append(dupPayload(4096)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	st := b.Stats()
	if ratio := st.CompressionRatio(); ratio < 2 {
		t.Fatalf("compression ratio %.2f on duplicated data, want >= 2", ratio)
	}
}

func TestIncompressibleFallsBackToStored(t *testing.T) {
	fs := vfs.NewMemFS()
	b := mustBackend(t, fs, Config{Compression: string(Flate)})
	w, _ := b.Create("f")
	payload := randPayload(4096, 3)
	if err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st := b.Stats()
	// A stored block costs exactly the frame on top of the payload: random
	// data must never expand beyond that.
	if st.StoredBytesWritten != int64(len(payload)+frameSize) {
		t.Fatalf("stored %d bytes for a %d-byte incompressible block, want %d",
			st.StoredBytesWritten, len(payload), len(payload)+frameSize)
	}
	r, _ := b.Open("f")
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stored fallback round trip: err %v, %d bytes", err, len(got))
	}
	r.Close()
}

func TestChecksumFlipDetected(t *testing.T) {
	cases := []struct {
		name string
		comp Compression
		off  int64 // the byte to damage
		poke func(byte) byte
	}{
		// One byte of the stored payload, past the frame header, flipped.
		{"none", None, frameSize + 3, func(b byte) byte { return b ^ 0xff }},
		{"flate", Flate, frameSize + 3, func(b byte) byte { return b ^ 0xff }},
		// A block as the retired gzip framing left it: its frame names
		// payload codec 2, which no longer is one — a corrupt frame, never
		// data handed to the wrong decoder.
		{"gzip", Flate, 4, func(byte) byte { return 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			b := mustBackend(t, fs, Config{Compression: string(tc.comp)})
			w, _ := b.Create("f")
			if err := w.Append(dupPayload(4096)); err != nil {
				t.Fatal(err)
			}
			w.Close()
			f, err := fs.Open("f")
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

			r, _ := b.Open("f")
			_, err = io.ReadAll(r)
			if err == nil {
				t.Fatal("corrupted block read back without error")
			}
			if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error = %v, want ErrChecksum or ErrCorrupt", err)
			}
			r.Close()
			if b.Stats().VerifyFailures == 0 {
				t.Fatal("verify failure not counted")
			}
		})
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	b := mustBackend(t, fs, Config{Compression: string(None)})
	w, _ := b.Create("f")
	w.Append(dupPayload(64))
	w.Close()
	f, _ := fs.Open("f")
	f.(interface {
		WriteAt([]byte, int64) (int, error)
	}).WriteAt([]byte{0xde, 0xad}, 0) // clobber the magic
	f.Close()
	r, _ := b.Open("f")
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error = %v, want ErrCorrupt", err)
	}
	r.Close()
}

func TestPagedRoundTrip(t *testing.T) {
	for _, comp := range all {
		t.Run(string(comp), func(t *testing.T) {
			fs := vfs.NewMemFS()
			b := mustBackend(t, fs, Config{Compression: string(comp)})
			const pageSize, pages = 128, 5
			pw, err := b.CreatePaged("p", pageSize, pages)
			if err != nil {
				t.Fatal(err)
			}
			// Pages arrive tail-first, as the backward writer produces them.
			p4, p3, p2 := dupPayload(pageSize), randPayload(pageSize, 4), dupPayload(pageSize)
			tail := randPayload(40, 5)
			for idx, page := range map[int][]byte{4: p4, 3: p3, 2: p2} {
				if err := pw.WritePage(idx, page); err != nil {
					t.Fatal(err)
				}
			}
			startPos, err := pw.WriteTail(1, tail)
			if err != nil {
				t.Fatal(err)
			}
			hdr := bytes.Repeat([]byte{7}, 32)
			if err := pw.WriteHeader(hdr); err != nil {
				t.Fatal(err)
			}
			if err := pw.Close(); err != nil {
				t.Fatal(err)
			}

			pr, err := b.OpenPaged("p")
			if err != nil {
				t.Fatal(err)
			}
			gotHdr := make([]byte, 32)
			if err := pr.ReadHeader(gotHdr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotHdr, hdr) {
				t.Fatal("header round trip mismatch")
			}
			if err := pr.Seek(1, startPos, pageSize, pages); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(struct{ io.Reader }{pr})
			if err != nil {
				t.Fatal(err)
			}
			pr.Close()
			var want []byte
			want = append(want, tail...)
			want = append(want, p2...)
			want = append(want, p3...)
			want = append(want, p4...)
			if !bytes.Equal(got, want) {
				t.Fatalf("paged round trip: got %d bytes, want %d", len(got), len(want))
			}
		})
	}
}
