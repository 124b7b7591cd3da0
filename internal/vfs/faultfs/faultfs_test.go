package faultfs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/vfs"
)

func readAll(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && size > 0 {
		t.Fatalf("ReadAt: %v", err)
	}
	return buf
}

func TestByteBudget(t *testing.T) {
	base := vfs.NewMemFS()
	fs := New(base, Options{FailAfterBytes: 10, FailAfterOps: -1})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	if fs.Crashed() {
		t.Fatal("crashed before budget exceeded")
	}
	n, err := f.WriteAt([]byte("x"), 10)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past budget: n=%d err=%v, want ErrCrashed", n, err)
	}
	if n != 0 {
		t.Errorf("non-torn crash landed %d bytes", n)
	}
	if !fs.Crashed() || fs.Written() != 10 {
		t.Errorf("Crashed=%v Written=%d, want true, 10", fs.Crashed(), fs.Written())
	}
	if got := readAll(t, base, "a"); !bytes.Equal(got, []byte("0123456789")) {
		t.Errorf("file = %q", got)
	}
}

func TestOpBudget(t *testing.T) {
	fs := New(vfs.NewMemFS(), Options{FailAfterBytes: -1, FailAfterOps: 2})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.WriteAt([]byte("ok"), int64(2*i)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := f.WriteAt([]byte("no"), 4); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third op: %v, want ErrCrashed", err)
	}
}

func TestTornWrite(t *testing.T) {
	base := vfs.NewMemFS()
	fs := New(base, Options{FailAfterBytes: 7, FailAfterOps: -1, Torn: true})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.WriteAt([]byte("0123456789"), 0)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: %v, want ErrCrashed", err)
	}
	if n != 7 {
		t.Errorf("torn prefix = %d bytes, want 7", n)
	}
	if got := readAll(t, base, "a"); !bytes.Equal(got, []byte("0123456")) {
		t.Errorf("file = %q, want torn prefix \"0123456\"", got)
	}
}

func TestPostCrashBehavior(t *testing.T) {
	base := vfs.NewMemFS()
	// Land one file fully, then crash on the next write.
	fs := New(base, Options{FailAfterBytes: 5, FailAfterOps: -1})
	f, err := fs.Create("keep")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("alive"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := fs.Create("dead")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("x"), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash write: %v", err)
	}
	// Every further mutation fails...
	if _, err := fs.Create("more"); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash Create: %v", err)
	}
	if err := fs.Remove("keep"); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash Remove: %v", err)
	}
	if _, err := g.WriteAt([]byte("y"), 1); !errors.Is(err, ErrCrashed) {
		t.Errorf("post-crash WriteAt: %v", err)
	}
	// ...but reads and listings pass through: the disk outlives the process.
	if got := readAll(t, fs, "keep"); !bytes.Equal(got, []byte("alive")) {
		t.Errorf("post-crash read = %q", got)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatalf("post-crash Names: %v", err)
	}
	if len(names) != 2 {
		t.Errorf("names = %v, want keep and dead", names)
	}
}

func TestUnlimitedBudgets(t *testing.T) {
	fs := New(vfs.NewMemFS(), Options{FailAfterBytes: -1, FailAfterOps: -1})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := f.WriteAt(make([]byte, 100), int64(100*i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fs.Crashed() {
		t.Error("crashed with unlimited budgets")
	}
}

// TestDeadDeviceFailsEveryGoroutine arms a dead device at the third create:
// two goroutines that create after it both fail, neither steps around it.
func TestDeadDeviceFailsEveryGoroutine(t *testing.T) {
	fs := New(vfs.NewMemFS(), Options{})
	fs.Fail(Create, 3)
	for _, name := range []string{"a", "b"} {
		if _, err := fs.Create(name); err != nil {
			t.Fatalf("create %s before the device died: %v", name, err)
		}
	}
	errs := make(chan error, 2)
	for _, name := range []string{"c", "d"} {
		go func() {
			_, err := fs.Create(name)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrInjected) {
			t.Errorf("create on the dead device: %v, want ErrInjected", err)
		}
	}
	if c, f := fs.Calls(Create), fs.Failed(Create); c != 4 || f != 2 {
		t.Errorf("%d creates, %d failed; want 4 and 2", c, f)
	}
}

// TestFailedCreateLeavesNoHandle counts handles: a create the FS fails, and
// an open the base refuses, hand out none; a closed file gives its back, a
// failed close included.
func TestFailedCreateLeavesNoHandle(t *testing.T) {
	fs := New(vfs.NewMemFS(), Options{})
	f, err := fs.Create("a")
	if err != nil || fs.Handles() != 1 {
		t.Fatalf("create: %v, %d handles", err, fs.Handles())
	}
	fs.Fail(Create, 1)
	if _, err := fs.Create("b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create on the dead device: %v", err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("opened a file that does not exist")
	}
	if fs.Handles() != 1 || fs.Failed(Open) != 1 {
		t.Fatalf("%d handles and %d failed opens, want 1 and 1", fs.Handles(), fs.Failed(Open))
	}
	fs.Fail(Close, 1)
	if err := f.Close(); !errors.Is(err, ErrInjected) || fs.Handles() != 0 {
		t.Fatalf("failed close: %v, %d handles left", err, fs.Handles())
	}
}

// TestMatchTargetsFiles narrows a dead device and a crash to one file, and
// the crash further to offsets past 4: every other call passes.
func TestMatchTargetsFiles(t *testing.T) {
	base := vfs.NewMemFS()
	fs := New(base, Options{FailAfterOps: 1, Torn: true, Match: func(name string, off int64) bool {
		return name == "b" && off >= 4
	}})
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	for off := int64(0); off < 16; off += 4 {
		if _, err := a.WriteAt([]byte("aaaa"), off); err != nil {
			t.Fatalf("write to a at %d: %v", off, err)
		}
	}
	if _, err := b.WriteAt([]byte("bbbb"), 0); err != nil {
		t.Fatalf("write to b at 0: %v", err)
	}
	if _, err := b.WriteAt([]byte("bbbb"), 4); err != nil {
		t.Fatalf("first matched write: %v", err)
	}
	if n, err := b.WriteAt([]byte("cccc"), 8); !errors.Is(err, ErrCrashed) || n != 2 {
		t.Fatalf("second matched write: %d, %v; want a torn half and ErrCrashed", n, err)
	}
	if got := readAll(t, base, "b"); string(got) != "bbbbbbbbcc" {
		t.Errorf("b = %q", got)
	}

	fs = New(base, Options{Match: func(name string, _ int64) bool { return name == "b" }})
	fs.Fail(Remove, 1)
	if err := fs.Remove("a"); err != nil {
		t.Fatalf("remove a: %v", err)
	}
	if err := fs.Remove("b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove b: %v, want ErrInjected", err)
	}
}

// TestCountsIncludeFailures holds the counts to every call made: those the
// dead device failed, and writes after a crash.
func TestCountsIncludeFailures(t *testing.T) {
	fs := New(vfs.NewMemFS(), Options{FailAfterBytes: 8})
	f, _ := fs.Create("a")
	f.WriteAt([]byte("01234567"), 0)
	fs.Fail(Read, 2)
	buf := make([]byte, 4)
	for i := 0; i < 3; i++ {
		f.ReadAt(buf, 0)
	}
	for i := 0; i < 3; i++ {
		f.WriteAt([]byte("x"), 8)
	}
	f.Close()
	for _, c := range []struct {
		op           Op
		calls, fails int64
	}{{Create, 1, 0}, {Read, 3, 2}, {Write, 4, 3}, {Close, 1, 0}} {
		if got, failed := fs.Calls(c.op), fs.Failed(c.op); got != c.calls || failed != c.fails {
			t.Errorf("op %d: %d calls, %d failed; want %d and %d", c.op, got, failed, c.calls, c.fails)
		}
	}
	if fs.Written() != 8 {
		t.Errorf("Written = %d, want 8", fs.Written())
	}
}

// TestFlipBitCorruptsReads flips bit 3 of byte 5 of one file: every read of
// that file that returns the byte returns it flipped, whatever its offset
// and length; reads that miss the byte, and reads of other files, return
// what was written, and so does the file itself.
func TestFlipBitCorruptsReads(t *testing.T) {
	base := vfs.NewMemFS()
	data := []byte("0123456789abcdef")
	for _, name := range []string{"a", "b"} {
		f, _ := base.Create(name)
		f.WriteAt(data, 0)
		f.Close()
	}
	fs := New(base, Options{FlipBit: 5*8 + 3 + 1, Match: func(name string, _ int64) bool { return name == "b" }})
	flipped := bytes.Clone(data)
	flipped[5] ^= 1 << 3
	for _, tc := range []struct {
		name     string
		off, len int
		want     []byte
	}{
		{"b", 0, 16, flipped},
		{"b", 5, 1, flipped[5:6]},
		{"b", 3, 4, flipped[3:7]},
		{"b", 6, 10, data[6:]},
		{"b", 0, 5, data[:5]},
		{"a", 0, 16, data},
	} {
		f, err := fs.Open(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, tc.len)
		if _, err := f.ReadAt(got, int64(tc.off)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s[%d:%d] = %q, want %q", tc.name, tc.off, tc.off+tc.len, got, tc.want)
		}
	}
	if got := readAll(t, base, "b"); !bytes.Equal(got, data) {
		t.Errorf("the file holds %q, want %q as written", got, data)
	}
}
