// Package crashfs is the reusable crash-injection harness behind the
// recovery tests: a vfs.FS decorator that "kills the process" at a
// deterministic, seedable point in the write stream. Until the crash
// point, writes pass through unchanged; at the crash point the write
// fails with ErrCrashed — optionally after a torn prefix of it reached
// storage, modelling a partial page write — and from then on every
// mutation fails. Reads keep working throughout: the disk survives the
// crash, only the process dies, and the recovery path inspects what is
// left.
//
// Budgets are expressed in bytes written or in write operations, so a
// test matrix can sweep kill points ("crash after the Nth byte") and
// replay any failure exactly.
package crashfs

import (
	"errors"
	"sync"

	"repro/internal/vfs"
)

// ErrCrashed is returned by every mutation at and after the crash point.
var ErrCrashed = errors.New("crashfs: simulated crash")

// Options configures the crash point.
type Options struct {
	// FailAfterBytes crashes the write that would exceed this many total
	// bytes written through the FS. Negative means no byte budget.
	FailAfterBytes int64
	// FailAfterOps crashes the (1-based) write operation after this many
	// write calls completed. Negative means no op budget. When both
	// budgets are set, whichever trips first crashes.
	FailAfterOps int64
	// Torn lets the crashing write land a partial prefix (whatever the
	// byte budget still allows) before failing, modelling a torn page. Off,
	// the crashing write lands nothing.
	Torn bool
}

// FS is the crash-injecting decorator. Create one per simulated process
// lifetime: after the crash trips, wrap the same base FS in a fresh
// decorator (or use the base directly) to model the restarted process.
type FS struct {
	base vfs.FS
	mu   sync.Mutex
	opt  Options
	// written and ops account all writes through this FS so far.
	written int64
	ops     int64
	crashed bool
}

// New wraps base with a crash point described by opt.
func New(base vfs.FS, opt Options) *FS {
	if opt.FailAfterBytes < 0 {
		opt.FailAfterBytes = 1<<62 - 1
	}
	if opt.FailAfterOps < 0 {
		opt.FailAfterOps = 1<<62 - 1
	}
	return &FS{base: base, opt: opt}
}

// Crashed reports whether the crash point has tripped.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Written returns the total bytes successfully written through the FS.
func (f *FS) Written() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.written
}

// admit charges one write of n bytes against the budgets. It returns how
// many bytes of the write may land (n normally; 0 < k < n only for a torn
// crash) and whether the write must fail afterwards.
func (f *FS) admit(n int) (allow int, crash bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, true
	}
	if f.ops+1 > f.opt.FailAfterOps {
		f.crashed = true
		return 0, true
	}
	if f.written+int64(n) > f.opt.FailAfterBytes {
		f.crashed = true
		if !f.opt.Torn {
			return 0, true
		}
		allow = int(f.opt.FailAfterBytes - f.written)
		if allow < 0 {
			allow = 0
		}
		f.written += int64(allow)
		return allow, true
	}
	f.ops++
	f.written += int64(n)
	return n, false
}

// Create opens a new file for writing; the handle's writes are charged
// against the crash budgets.
func (f *FS) Create(name string) (vfs.File, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: f, f: file}, nil
}

// Open passes through: reads survive the crash. Writes through the handle
// are charged against the crash budgets like a created file's.
func (f *FS) Open(name string) (vfs.File, error) {
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{fs: f, f: file}, nil
}

// Remove fails after the crash point and passes through before it.
func (f *FS) Remove(name string) error {
	if f.Crashed() {
		return ErrCrashed
	}
	return f.base.Remove(name)
}

// Names passes through: directory listing survives the crash.
func (f *FS) Names() ([]string, error) { return f.base.Names() }

// crashFile charges WriteAt calls against the owning FS's budgets.
type crashFile struct {
	fs *FS
	f  vfs.File
}

func (c *crashFile) ReadAt(p []byte, off int64) (int, error) { return c.f.ReadAt(p, off) }

func (c *crashFile) WriteAt(p []byte, off int64) (int, error) {
	allow, crash := c.fs.admit(len(p))
	if allow > 0 {
		if n, err := c.f.WriteAt(p[:allow], off); err != nil {
			return n, err
		}
	}
	if crash {
		return allow, ErrCrashed
	}
	return len(p), nil
}

func (c *crashFile) Close() error { return c.f.Close() }

func (c *crashFile) Size() (int64, error) { return c.f.Size() }
