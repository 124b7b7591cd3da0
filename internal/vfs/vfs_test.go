package vfs

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// fsImpls returns one instance of every FS implementation for table tests.
func fsImpls(t *testing.T) map[string]FS {
	t.Helper()
	return map[string]FS{
		"mem": NewMemFS(),
		"os":  NewOSFS(t.TempDir()),
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("a.run")
			if err != nil {
				t.Fatal(err)
			}
			payload := []byte("hello external sorting")
			if _, err := f.WriteAt(payload, 0); err != nil {
				t.Fatal(err)
			}
			sz, err := f.Size()
			if err != nil || sz != int64(len(payload)) {
				t.Fatalf("Size = (%d, %v), want (%d, nil)", sz, err, len(payload))
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			g, err := fs.Open("a.run")
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			buf := make([]byte, len(payload))
			if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, payload) {
				t.Fatalf("read %q, want %q", buf, payload)
			}
		})
	}
}

func TestWriteAtExtendsWithZeros(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("sparse")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{0xff}, 10); err != nil {
				t.Fatal(err)
			}
			sz, _ := f.Size()
			if sz != 11 {
				t.Fatalf("Size = %d, want 11", sz)
			}
			buf := make([]byte, 11)
			if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if buf[i] != 0 {
					t.Fatalf("byte %d = %d, want 0", i, buf[i])
				}
			}
			if buf[10] != 0xff {
				t.Fatalf("byte 10 = %d, want 0xff", buf[10])
			}
		})
	}
}

func TestReadPastEOF(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, err := fs.Create("short")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 10)
			n, err := f.ReadAt(buf, 0)
			if n != 3 || err != io.EOF {
				t.Fatalf("short read = (%d, %v), want (3, io.EOF)", n, err)
			}
			n, err = f.ReadAt(buf, 100)
			if n != 0 || err != io.EOF {
				t.Fatalf("read past end = (%d, %v), want (0, io.EOF)", n, err)
			}
		})
	}
}

func TestOpenMissingFile(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("nope"); !os.IsNotExist(err) {
				t.Fatalf("Open(missing) = %v, want not-exist", err)
			}
			if err := fs.Remove("nope"); !os.IsNotExist(err) {
				t.Fatalf("Remove(missing) = %v, want not-exist", err)
			}
		})
	}
}

func TestRemoveAndNames(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []string{"b", "a", "c"} {
				f, err := fs.Create(n)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			names, err := fs.Names()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
				t.Fatalf("Names = %v, want [a b c]", names)
			}
			if err := fs.Remove("b"); err != nil {
				t.Fatal(err)
			}
			names, _ = fs.Names()
			if len(names) != 2 {
				t.Fatalf("after remove, Names = %v", names)
			}
		})
	}
}

func TestCreateTruncatesExisting(t *testing.T) {
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			f, _ := fs.Create("x")
			f.WriteAt([]byte("0123456789"), 0)
			f.Close()
			g, err := fs.Create("x")
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			sz, _ := g.Size()
			if sz != 0 {
				t.Fatalf("recreated file size = %d, want 0", sz)
			}
		})
	}
}

func TestMemFSClosedFile(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); err != os.ErrClosed {
		t.Fatalf("ReadAt after close = %v, want os.ErrClosed", err)
	}
	if _, err := f.WriteAt([]byte{1}, 0); err != os.ErrClosed {
		t.Fatalf("WriteAt after close = %v, want os.ErrClosed", err)
	}
	if err := f.Close(); err != os.ErrClosed {
		t.Fatalf("double close = %v, want os.ErrClosed", err)
	}
}

func TestMemFSNegativeOffset(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("ReadAt(-1) should fail")
	}
	if _, err := f.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("WriteAt(-1) should fail")
	}
}

// TestDiscardKeepsNothing: a file created on Discard takes every write and
// reads as empty, and the file system holds nothing to open or list.
func TestDiscardKeepsNothing(t *testing.T) {
	var fs Discard
	f, err := fs.Create("run")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.WriteAt([]byte("payload"), 4096); n != 7 || err != nil {
		t.Fatalf("WriteAt = (%d, %v), want (7, nil)", n, err)
	}
	if n, err := f.ReadAt(make([]byte, 4), 0); n != 0 || err != io.EOF {
		t.Fatalf("ReadAt = (%d, %v), want (0, io.EOF)", n, err)
	}
	if size, err := f.Size(); size != 0 || err != nil {
		t.Fatalf("Size = (%d, %v), want (0, nil)", size, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("run"); !os.IsNotExist(err) {
		t.Fatalf("Open = %v, want not-exist", err)
	}
	if names, err := fs.Names(); len(names) != 0 || err != nil {
		t.Fatalf("Names = (%v, %v), want nothing", names, err)
	}
	if err := fs.Remove("run"); err != nil {
		t.Fatal(err)
	}
}
