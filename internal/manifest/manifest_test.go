package manifest

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/vfs"
)

func testHeader() Header {
	return Header{
		Prefix:      "sort",
		Codec:       "codec.Record16",
		Compression: "raw",
		Generation:  "policy=2wrs memory=100",
	}
}

func testRun(seq int) Run {
	return Run{
		Records:      int64(100 * seq),
		Concatenable: seq%2 == 0,
		Policy:       "2wrs",
		Segments: []Segment{
			{Name: fmt.Sprintf("sort-%04d-rs", seq), Records: int64(60 * seq), Sum: uint64(seq) * 7},
			{Name: fmt.Sprintf("sort-%04d-s2", seq), Records: int64(40 * seq), Backward: true, Files: 2, Sum: uint64(seq) * 13},
		},
		InputPos: int64(109 * seq),
		NamerSeq: 3 * seq,
	}
}

// writeManifest builds a manifest with n run records, optionally committed,
// and returns its bytes.
func writeManifest(t testing.TB, n int, commit bool) []byte {
	t.Helper()
	fs := vfs.NewMemFS()
	w, err := Create(fs, "m", testHeader())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var records int64
	for i := 1; i <= n; i++ {
		r := testRun(i)
		records = r.InputPos
		if err := w.AppendRun(r); err != nil {
			t.Fatalf("AppendRun: %v", err)
		}
	}
	if commit {
		if err := w.Commit(records, n); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := fs.Open("m")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		t.Fatalf("read: %v", err)
	}
	return data
}

func TestManifestRoundTrip(t *testing.T) {
	data := writeManifest(t, 3, true)
	st, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if st.Header != testHeader().withVersion() {
		t.Errorf("header = %+v", st.Header)
	}
	if len(st.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(st.Runs))
	}
	for i, r := range st.Runs {
		want := testRun(i + 1)
		want.Seq = i + 1
		if fmt.Sprintf("%+v", r) != fmt.Sprintf("%+v", want) {
			t.Errorf("run %d = %+v, want %+v", i, r, want)
		}
	}
	if !st.Committed || st.Commit.Runs != 3 || st.Commit.Records != testRun(3).InputPos || st.Commit.Switches != 3 {
		t.Errorf("commit = %v %+v", st.Committed, st.Commit)
	}
	if st.TornBytes != 0 {
		t.Errorf("TornBytes = %d, want 0", st.TornBytes)
	}
}

// withVersion stamps the version the writer assigns, for comparisons.
func (h Header) withVersion() Header {
	h.Version = Version
	return h
}

func TestManifestUncommitted(t *testing.T) {
	st, err := Decode(writeManifest(t, 2, false))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if st.Committed {
		t.Error("Committed = true for uncommitted manifest")
	}
	if len(st.Runs) != 2 {
		t.Errorf("runs = %d, want 2", len(st.Runs))
	}
}

// Every truncation point of a valid manifest must decode to a prefix of its
// records with the rest reported as torn — and never an error or a panic.
func TestManifestTornTailTruncation(t *testing.T) {
	data := writeManifest(t, 3, true)
	headerEnd := bytes.IndexByte(data, '\n') + 1
	for cut := len(data) - 1; cut >= headerEnd; cut-- {
		st, err := Decode(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: Decode error: %v", cut, err)
		}
		whole := int64(cut)
		for _, lineLen := range recordLengths(data) {
			if lineLen <= whole {
				whole -= lineLen
			} else {
				break
			}
		}
		if st.TornBytes != whole {
			t.Errorf("cut=%d: TornBytes = %d, want %d", cut, st.TornBytes, whole)
		}
		if st.Committed && len(st.Runs) != 3 {
			t.Errorf("cut=%d: committed with %d runs", cut, len(st.Runs))
		}
	}
}

// recordLengths returns the byte length of each newline-terminated record.
func recordLengths(data []byte) []int64 {
	var out []int64
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		out = append(out, int64(nl+1))
		data = data[nl+1:]
	}
	return out
}

func TestManifestFlippedByteDetected(t *testing.T) {
	data := writeManifest(t, 2, false)
	lens := recordLengths(data)
	// Flip one byte inside the second run record (header + run1 before it).
	off := lens[0] + lens[1] + 12
	data[off] ^= 0xff
	st, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(st.Runs) != 1 {
		t.Errorf("runs = %d, want 1 (damaged second record)", len(st.Runs))
	}
	if st.TornBytes != lens[2] {
		t.Errorf("TornBytes = %d, want %d", st.TornBytes, lens[2])
	}
}

func TestManifestDuplicatedRecord(t *testing.T) {
	data := writeManifest(t, 2, false)
	lens := recordLengths(data)
	// Duplicate the last run record: its Seq repeats, so parsing stops there.
	dup := data[lens[0]+lens[1]:]
	grown := append(append([]byte{}, data...), dup...)
	st, err := Decode(grown)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(st.Runs) != 2 {
		t.Errorf("runs = %d, want 2", len(st.Runs))
	}
	if st.TornBytes != int64(len(dup)) {
		t.Errorf("TornBytes = %d, want %d", st.TornBytes, len(dup))
	}
}

func TestManifestCommitCountMismatch(t *testing.T) {
	// A commit claiming more runs than were recorded must not count.
	fs := vfs.NewMemFS()
	w, err := Create(fs, "m", testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRun(testRun(1)); err != nil {
		t.Fatal(err)
	}
	w.runs = 5 // sabotage the count the commit record will carry
	if err := w.Commit(100, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st, err := Load(fs, "m")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if st.Committed {
		t.Error("Committed = true despite commit/run count disagreement")
	}
	if len(st.Runs) != 1 {
		t.Errorf("runs = %d, want 1", len(st.Runs))
	}
}

func TestManifestErrors(t *testing.T) {
	if _, err := Load(vfs.NewMemFS(), "absent"); !errors.Is(err, ErrNoManifest) {
		t.Errorf("missing file: %v, want ErrNoManifest", err)
	}
	if _, err := Decode([]byte("this is not a manifest\n")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage: %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty: %v, want ErrCorrupt", err)
	}
	// A valid file from another version — a future one, or the version 1
	// whose carry files and checksums mean something else — must be
	// refused, not misread.
	current := writeManifest(t, 1, true)
	for _, v := range []int{1, 9} {
		bumped := bytes.Replace(current, []byte(fmt.Sprintf(`"v":%d`, Version)), []byte(fmt.Sprintf(`"v":%d`, v)), 1)
		line := bumped[:bytes.IndexByte(bumped, '\n')]
		payload := line[crcHexLen+1:]
		fixed := append([]byte(fmt.Sprintf("%08x ", crc32.ChecksumIEEE(payload))), payload...)
		fixed = append(fixed, '\n')
		fixed = append(fixed, bumped[bytes.IndexByte(bumped, '\n')+1:]...)
		if _, err := Decode(fixed); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version %d: %v, want ErrCorrupt", v, err)
		}
	}
}

// TestVersion2Refused loads the manifests durable sorts of two older
// formats left behind, each refused like any unknown version:
// testdata/v2.manifest (two run boundaries of a 2WRS sort, its files one
// per run on the file system), whose records place no file in an arena, and
// testdata/v3.manifest (three boundaries of a 2WRS sort in an arena), whose
// records restore the generator from a snapshot instead of replaying it.
func TestVersion2Refused(t *testing.T) {
	for _, v := range []int{2, 3} {
		data, err := os.ReadFile(fmt.Sprintf("testdata/v%d.manifest", v))
		if err != nil {
			t.Fatal(err)
		}
		fs := vfs.NewMemFS()
		f, _ := fs.Create("sort.manifest")
		f.WriteAt(data, 0)
		f.Close()
		if _, err := Load(fs, "sort.manifest"); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNoHeader) {
			t.Fatalf("version %d manifest: %v, want ErrCorrupt for its version", v, err)
		}
	}
}

func TestMismatchError(t *testing.T) {
	err := error(&MismatchError{Field: "codec", Want: "a", Got: "b"})
	if !errors.Is(err, ErrMismatch) {
		t.Error("MismatchError does not unwrap to ErrMismatch")
	}
	for _, part := range []string{"codec", `"a"`, `"b"`} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q missing %q", err, part)
		}
	}
}

func TestRewriteRenumbersPrefix(t *testing.T) {
	fs := vfs.NewMemFS()
	// Seed with two recovered runs whose recorded Seq values are stale.
	r1, r2 := testRun(1), testRun(2)
	r1.Seq, r2.Seq = 7, 9
	w, err := Rewrite(fs, "m", testHeader(), []Run{r1, r2})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if err := w.AppendRun(testRun(3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(327, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st, err := Load(fs, "m")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(st.Runs) != 3 || !st.Committed {
		t.Fatalf("runs = %d committed = %v", len(st.Runs), st.Committed)
	}
	for i, r := range st.Runs {
		if r.Seq != i+1 {
			t.Errorf("run %d Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
}

// FuzzManifestRoundTrip drives the decoder with arbitrary mutations of
// valid manifests: it must never panic, never invent run records, and — on
// inputs that contain an intact committed prefix — still report the last
// committed run boundary.
func FuzzManifestRoundTrip(f *testing.F) {
	f.Add(writeManifest(f, 0, false))
	f.Add(writeManifest(f, 1, false))
	f.Add(writeManifest(f, 3, true))
	long := writeManifest(f, 5, true)
	f.Add(long)
	f.Add(long[:len(long)-7])               // torn tail
	f.Add(append([]byte{}, long[41:]...))   // header damage
	f.Add(bytes.Repeat([]byte("x 1\n"), 8)) // junk lines
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			// Typed corruption is the only acceptable error.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode error is not ErrCorrupt: %v", err)
			}
			return
		}
		// Every reported run must be in sequence, and the commit (when
		// reported) must agree with the run count.
		for i, r := range st.Runs {
			if r.Seq != i+1 {
				t.Fatalf("run %d out of sequence: Seq = %d", i, r.Seq)
			}
		}
		if st.Committed && st.Commit.Runs != len(st.Runs) {
			t.Fatalf("committed with %d runs but commit says %d", len(st.Runs), st.Commit.Runs)
		}
		if st.TornBytes < 0 || st.TornBytes > int64(len(data)) {
			t.Fatalf("TornBytes = %d out of range", st.TornBytes)
		}
	})
}
