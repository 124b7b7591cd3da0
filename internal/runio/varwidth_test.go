package runio

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

func lessStr(a, b string) bool { return a < b }

// randomStrings returns n strings of wildly varying length, some far longer
// than a 64-byte page, so encodings span pages and files.
func randomStrings(n int, rng *rand.Rand) []string {
	vals := make([]string, n)
	for i := range vals {
		l := rng.Intn(10)
		if rng.Intn(4) == 0 {
			l = 60 + rng.Intn(200) // longer than a whole test page
		}
		var sb strings.Builder
		for j := 0; j < l; j++ {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
		vals[i] = sb.String()
	}
	return vals
}

func TestForwardVarWidthRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	rng := rand.New(rand.NewSource(3))
	vals := randomStrings(2000, rng)
	sort.Strings(vals)
	w, err := NewWriter(storage.NewRaw(fs), "s", 64, codec.String{}, lessStr)
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
	r, err := NewReader(storage.NewRaw(fs), "s", 64, codec.String{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAllCancel[string](r, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d: %q != %q", i, got[i], vals[i])
		}
	}
}

func TestBackwardVarWidthSpanningPagesAndFiles(t *testing.T) {
	// 64-byte pages, 3 pages per file (header + 2 data): long strings must
	// span pages and chain files, and still read back ascending.
	fs := vfs.NewMemFS()
	rng := rand.New(rand.NewSource(7))
	vals := randomStrings(500, rng)
	sort.Sort(sort.Reverse(sort.StringSlice(vals)))

	w, err := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.String{}, lessStr)
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
	if w.Files() < 2 {
		t.Fatalf("expected a multi-file chain, got %d files", w.Files())
	}

	r, err := NewBackwardReader(storage.NewRaw(fs), "b", w.Files(), 64, codec.String{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAllCancel[string](r, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("backward chain did not read ascending")
	}
	want := append([]string(nil), vals...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: %q != %q", i, got[i], want[i])
		}
	}
}

func TestBackwardVarWidthElementLargerThanBuffer(t *testing.T) {
	// A single element far larger than both the page and the read buffer
	// forces the reader to grow its buffer across file boundaries.
	fs := vfs.NewMemFS()
	huge := strings.Repeat("z", 700) // spans multiple 3-page 64-byte files
	vals := []string{huge, "m", "a"}
	w, err := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.String{}, lessStr)
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
	r, err := NewBackwardReader(storage.NewRaw(fs), "b", w.Files(), 64, codec.String{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAllCancel[string](r, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != huge {
		t.Fatalf("got %d values (lengths %v)", len(got), []int{len(got[0]), len(got[1]), len(got[2])})
	}
}

func TestVarWidthRunConcatenation(t *testing.T) {
	fs := vfs.NewMemFS()
	w4, _ := NewBackwardWriter(storage.NewRaw(fs), "s4", 64, 3, codec.String{}, lessStr)
	for _, v := range []string{"cc", "bb", "aa"} {
		w4.Write(v)
	}
	w4.Close()
	wf, _ := NewWriter(storage.NewRaw(fs), "s1", 64, codec.String{}, lessStr)
	for _, v := range []string{"dd", "ee"} {
		wf.Write(v)
	}
	wf.Close()
	run := Run{
		Segments: []Segment{
			{Name: "s4", Records: 3, Backward: true, Files: w4.Files()},
			{Name: "s1", Records: 2},
		},
		Records:      5,
		Concatenable: true,
	}
	r := openWhole(t, storage.NewRaw(fs), run, 256, codec.String{})
	got, err := stream.ReadAllCancel[string](r, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	want := []string{"aa", "bb", "cc", "dd", "ee"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
