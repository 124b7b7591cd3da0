// Package vfs provides the small file-system abstraction that all run
// storage in this library is written against.
//
// Two implementations store files: OSFS on the real file system (what a
// production deployment uses) and MemFS in memory (deterministic, used by
// tests and as the backing store for the simulated disk in internal/iosim).
// A third, Arena, stores every file it holds as extents of one physical
// file of another FS: a sort spills its runs into one, so the file system
// sees one create and one unlink per sort instead of a pair per run.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is a random-access file handle. Run storage only ever performs
// positional I/O, which keeps the interface trivially implementable by both
// real files and in-memory buffers, and lets the disk simulator observe the
// exact (offset, length) of every access.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
}

// FS creates, opens and removes named files. Implementations must allow
// re-opening a file that was created and closed earlier.
type FS interface {
	// Create creates or truncates the named file for read/write access.
	Create(name string) (File, error)
	// Open opens an existing file for reading and, where the
	// implementation allows it, for writing in place.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Names returns the names of all files currently in the file system,
	// sorted. It exists so temp-space accounting and cleanup can be tested.
	Names() ([]string, error)
}

// OSFS is an FS rooted at a directory on the operating system's file system.
type OSFS struct {
	dir string
}

// NewOSFS returns an FS storing files under dir, which must exist.
func NewOSFS(dir string) *OSFS { return &OSFS{dir: dir} }

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (fs *OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS: read-write where the file's permissions allow, so an
// Arena can write into the physical file it adopts; read-only otherwise.
func (fs *OSFS) Open(name string) (File, error) {
	path := filepath.Join(fs.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, os.ErrPermission) {
		f, err = os.Open(path)
	}
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (fs *OSFS) Remove(name string) error {
	return os.Remove(filepath.Join(fs.dir, name))
}

// Names implements FS.
func (fs *OSFS) Names() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MemFS is an in-memory FS. It is safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memData
}

type memData struct {
	mu   sync.Mutex
	data []byte
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memData)} }

type memFile struct {
	d      *memData
	closed bool
}

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d := &memData{}
	fs.files[name] = d
	return &memFile{d: d}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, ok := fs.files[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{d: d}, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

// Names implements FS.
func (fs *MemFS) Names() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(f.d.data)) {
		if end > int64(cap(f.d.data)) {
			// Grow geometrically so append-style write patterns stay
			// amortised O(1) per byte instead of O(size) per write.
			newCap := 2 * int64(cap(f.d.data))
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, f.d.data)
			f.d.data = grown
		} else {
			f.d.data = f.d.data[:end]
		}
	}
	copy(f.d.data[off:end], p)
	return len(p), nil
}

func (f *memFile) Close() error {
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

func (f *memFile) Size() (int64, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.d.data)), nil
}

// Discard is a file system that keeps nothing, for runs no one reads back: a
// resumed sort's replay of the runs it recovered, and the run-length
// experiments'. A file created on it takes every write and reads as empty;
// Open and Names find none.
type Discard struct{}

type discardFile struct{}

// Create implements FS.
func (Discard) Create(string) (File, error) { return discardFile{}, nil }

// Open implements FS: nothing is held.
func (Discard) Open(name string) (File, error) { return nil, notExist("open", name) }

// Remove implements FS.
func (Discard) Remove(string) error { return nil }

// Names implements FS: nothing is held.
func (Discard) Names() ([]string, error) { return nil, nil }

func (discardFile) ReadAt([]byte, int64) (int, error)      { return 0, io.EOF }
func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Close() error                           { return nil }
func (discardFile) Size() (int64, error)                   { return 0, nil }
