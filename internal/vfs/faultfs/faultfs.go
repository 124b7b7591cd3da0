// Package faultfs is the fault-and-count file system of the tests: a vfs.FS
// decorator that counts the calls made through it and breaks the ones it is
// told to. A crash kills the process at a byte or a write budget, so a test
// matrix can sweep kill points and replay any of them: the crashing write
// fails with ErrCrashed, perhaps after a torn prefix of it landed, every
// later mutation fails, and reads keep working, as the disk outlives the
// process. A dead device (Fail) fails every call of one operation from the
// n-th on with ErrInjected, on whichever goroutine makes it.
package faultfs

import (
	"errors"
	"sync"

	"repro/internal/vfs"
)

var (
	// ErrCrashed is returned by every mutation at and after the crash point.
	ErrCrashed = errors.New("faultfs: simulated crash")
	// ErrInjected is returned by every call a dead device fails.
	ErrInjected = errors.New("faultfs: injected fault")
)

// Op names one kind of call the FS counts and can fail.
type Op int

// The operations: every vfs call that touches a file.
const (
	Create Op = iota
	Open
	Read
	Write
	Close
	Remove
	numOps
)

// Options configures the crash point and narrows the faults.
type Options struct {
	// FailAfterBytes crashes the write that would exceed this many total
	// bytes written through the FS. Zero or negative means no byte budget.
	FailAfterBytes int64
	// FailAfterOps crashes the (1-based) write operation after this many
	// write calls completed. Zero or negative means no op budget. When both
	// budgets are set, whichever trips first crashes.
	FailAfterOps int64
	// Torn lets the crashing write land a prefix before failing, modelling a
	// torn page: what the byte budget still allows, or half the write when
	// the op budget tripped. Off, the crashing write lands nothing.
	Torn bool
	// Match, when set, narrows the faults to the calls it accepts, by file
	// name and offset (a read's or a write's; 0 for other calls): only those
	// writes count toward FailAfterOps, and only those calls Fail fails.
	Match func(name string, off int64) bool
}

// FS is the decorator, safe for concurrent use. Make one per simulated
// process lifetime; the restarted process uses the base or a fresh FS.
type FS struct {
	base vfs.FS
	opt  Options

	mu      sync.Mutex
	written int64 // bytes landed through the FS
	ops     int64 // writes charged against FailAfterOps
	crashed bool
	handles int64
	calls   [numOps]int64 // failed ones included
	failed  [numOps]int64
	failAt  [numOps]int64 // the first call Fail fails; 0: none
}

// New wraps base with the crash point described by opt. New(base,
// Options{}) only counts, until Fail arms a dead device.
func New(base vfs.FS, opt Options) *FS { return &FS{base: base, opt: opt} }

// Fail arms a dead device: from the n-th call of op on, counted from now
// (n ≥ 1), every call of it that Match accepts fails with ErrInjected.
func (f *FS) Fail(op Op, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt[op] = f.calls[op] + n
}

// Crashed reports whether the crash point has tripped.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FS) load(v *int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *v
}

// Written returns the total bytes successfully written through the FS.
func (f *FS) Written() int64 { return f.load(&f.written) }

// Calls returns how many calls of op were made, failed ones included.
func (f *FS) Calls(op Op) int64 { return f.load(&f.calls[op]) }

// Failed returns how many calls of op the FS failed, plus the creates and
// opens the base file system refused.
func (f *FS) Failed(op Op) int64 { return f.load(&f.failed[op]) }

// Handles returns how many of the files the FS handed out are not closed.
func (f *FS) Handles() int64 { return f.load(&f.handles) }

// charge counts a call of op on name at off, for a write one of n bytes. It
// returns how many of those bytes may land and the error the call fails
// with: a mutation after the crash, a call of a dead device, or the crashing
// write, which may land a torn prefix.
func (f *FS) charge(op Op, name string, off int64, n int) (allow int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	matched := f.opt.Match == nil || f.opt.Match(name, off)
	bytesLeft := f.opt.FailAfterBytes - f.written
	switch {
	case f.crashed && (op == Create || op == Write || op == Remove):
		err = ErrCrashed
	case matched && f.failAt[op] > 0 && f.calls[op] >= f.failAt[op]:
		err = ErrInjected
	case op != Write:
	case matched && f.opt.FailAfterOps > 0 && f.ops >= f.opt.FailAfterOps:
		f.crashed, err, allow = true, ErrCrashed, n/2
	case f.opt.FailAfterBytes > 0 && int64(n) > bytesLeft:
		f.crashed, err, allow = true, ErrCrashed, int(bytesLeft)
	default:
		allow = n
		if matched {
			f.ops++
		}
	}
	if err != nil {
		f.failed[op]++
		if !f.opt.Torn {
			allow = 0
		}
	}
	f.written += int64(allow)
	return allow, err
}

// handOut creates or opens name through the base's open, unless charge
// fails it first, and counts the handle.
func (f *FS) handOut(op Op, name string, open func(string) (vfs.File, error)) (vfs.File, error) {
	if _, err := f.charge(op, name, 0, 0); err != nil {
		return nil, err
	}
	file, err := open(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		f.failed[op]++
		return nil, err
	}
	f.handles++
	return &faultFile{fs: f, f: file, name: name}, nil
}

// Create fails after the crash point and on a dead device.
func (f *FS) Create(name string) (vfs.File, error) { return f.handOut(Create, name, f.base.Create) }

// Open survives the crash, as reads do; the handle's writes are charged.
func (f *FS) Open(name string) (vfs.File, error) { return f.handOut(Open, name, f.base.Open) }

// Remove fails after the crash point and on a dead device.
func (f *FS) Remove(name string) error {
	if _, err := f.charge(Remove, name, 0, 0); err != nil {
		return err
	}
	return f.base.Remove(name)
}

// Names passes through: directory listing survives the crash.
func (f *FS) Names() ([]string, error) { return f.base.Names() }

// faultFile counts and charges its calls against the owning FS.
type faultFile struct {
	fs     *FS
	f      vfs.File
	name   string
	closed bool // guarded by fs.mu
}

func (c *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if _, err := c.fs.charge(Read, c.name, off, 0); err != nil {
		return 0, err
	}
	return c.f.ReadAt(p, off)
}

func (c *faultFile) WriteAt(p []byte, off int64) (int, error) {
	allow, err := c.fs.charge(Write, c.name, off, len(p))
	if allow > 0 {
		if n, werr := c.f.WriteAt(p[:allow], off); werr != nil {
			return n, werr
		}
	}
	if err != nil {
		return allow, err
	}
	return len(p), nil
}

// Close closes the base file even when it fails the call, so a failed close
// leaves no handle open.
func (c *faultFile) Close() error {
	_, err := c.fs.charge(Close, c.name, 0, 0)
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.fs.mu.Lock()
	defer c.fs.mu.Unlock()
	if !c.closed {
		c.closed, c.fs.handles = true, c.fs.handles-1
	}
	return err
}

func (c *faultFile) Size() (int64, error) { return c.f.Size() }
