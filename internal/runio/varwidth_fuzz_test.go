package runio

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// FuzzVarWidthRoundTrip drives the length-prefixed variable-width codec
// through both on-disk layouts with tiny pages (64 bytes; 3-page backward
// chain files, i.e. one header plus two data pages), so fuzz-chosen element
// lengths constantly straddle page and chain-file boundaries — and through
// every storage backend, so the same boundary-spanning streams also cross
// checksummed, compressed block frames and the fixed-slot paged layout.
// Each input byte contributes one element whose payload length is that
// byte's value (0–255): a page can hold several elements, an element can
// span several pages, and the chain can grow to many files. The property is
// the codec contract itself — whatever lengths the fuzzer picks and
// whatever framing stores them, both layouts must return exactly the
// elements written, in ascending order, with zero verification failures.
func FuzzVarWidthRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{63, 64, 65})    // straddle one 64-byte page exactly
	f.Add([]byte{200, 200, 200}) // every element spans pages
	f.Add([]byte{255, 0, 255, 0, 1})
	f.Add(bytes.Repeat([]byte{7}, 100))
	f.Add(bytes.Repeat([]byte{130}, 40)) // forces multi-file backward chains
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		vals := make([][]byte, len(data))
		for i, b := range data {
			vals[i] = bytes.Repeat([]byte{byte(i%251) + 1}, int(b))
		}
		asc := func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }
		sort.Slice(vals, func(i, j int) bool { return asc(vals[i], vals[j]) })

		check := func(label string, got [][]byte) {
			t.Helper()
			if len(got) != len(vals) {
				t.Fatalf("%s: %d elements back, want %d", label, len(got), len(vals))
			}
			for i := range vals {
				if !bytes.Equal(got[i], vals[i]) {
					t.Fatalf("%s: element %d is %d bytes %v…, want %d bytes",
						label, i, len(got[i]), got[i][:min(4, len(got[i]))], len(vals[i]))
				}
			}
		}

		for _, comp := range []string{"raw", "none", "flate"} {
			st, err := storage.New(vfs.NewMemFS(), storage.Config{Compression: comp})
			if err != nil {
				t.Fatal(err)
			}

			// Forward layout: ascending writes, ascending reads.
			w, err := NewWriter(st, "f", 64, codec.Bytes{}, asc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if err := w.Write(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := NewReader(st, "f", 64, codec.Bytes{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := stream.ReadAllCancel[[]byte](r, nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			check(comp+"/forward", got)

			// Backward layout: descending writes through the tail-first chain,
			// ascending reads across the file transitions.
			bw, err := NewBackwardWriter(st, "b", 64, 3, codec.Bytes{}, asc)
			if err != nil {
				t.Fatal(err)
			}
			for i := len(vals) - 1; i >= 0; i-- {
				if err := bw.Write(vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			br, err := NewBackwardReader(st, "b", bw.Files(), 64, codec.Bytes{})
			if err != nil {
				t.Fatal(err)
			}
			got, err = stream.ReadAllCancel[[]byte](br, nil)
			if err != nil {
				t.Fatal(err)
			}
			br.Close()
			check(comp+"/backward", got)

			if vf := st.Stats().VerifyFailures; vf != 0 {
				t.Fatalf("%s: %d verify failures on clean round trip", comp, vf)
			}
		}
	})
}
