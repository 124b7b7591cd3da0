// Package iosim simulates a magnetic hard disk in front of a vfs.FS.
//
// The paper's Chapter 6 experiments measure wall-clock time on a 2010-era
// SATA drive opened with direct I/O, where the dominant costs are seeks (the
// head moving between runs during a k-way merge) and sequential transfer.
// Reproducing those experiments on modern hardware hides both costs behind
// page caches and SSDs, so this package substitutes an analytical disk
// model: every positional access through the wrapped file system is charged
//
//	seek + half-rotation   when it does not continue the previous access,
//	bytes / transfer-rate  always.
//
// The simulated clock (Disk.Elapsed) replaces the paper's "minutes" axis.
// Absolute values differ from the paper's hardware; the comparative shape of
// every figure is preserved because the cost structure is the same.
package iosim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/vfs"
)

// Params describes the simulated drive.
type Params struct {
	// Seek is the average head seek time charged on any non-sequential
	// access.
	Seek time.Duration
	// HalfRotation is the average rotational latency (half a platter
	// revolution) charged together with each seek.
	HalfRotation time.Duration
	// TransferRate is the sustained sequential throughput in bytes/second.
	TransferRate float64
	// WriteThrough, when true, charges writes like reads (seek on any
	// non-sequential position). The default (false) models the OS/drive
	// write cache the thesis relies on for its backward streams (Appendix
	// A.1: "the impact of writing backwards is less severe because the
	// operating system uses the disk cache"): writes cost transfer time
	// only and do not move the head.
	WriteThrough bool
}

// Defaults2010 models the thesis testbed: a 60 GB 7200 rpm SATA drive
// (≈8.5 ms average seek, 4.16 ms half rotation, ≈60 MB/s sustained).
func Defaults2010() Params {
	return Params{
		Seek:         8500 * time.Microsecond,
		HalfRotation: 4160 * time.Microsecond,
		TransferRate: 60 << 20,
	}
}

// Stats aggregates the simulated I/O activity.
type Stats struct {
	Reads        int64
	Writes       int64
	Seeks        int64
	BytesRead    int64
	BytesWritten int64
}

// Ops returns the total number of I/O requests issued.
func (s Stats) Ops() int64 { return s.Reads + s.Writes }

// Bytes returns the total bytes moved in either direction.
func (s Stats) Bytes() int64 { return s.BytesRead + s.BytesWritten }

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d seeks=%d bytesRead=%d bytesWritten=%d",
		s.Reads, s.Writes, s.Seeks, s.BytesRead, s.BytesWritten)
}

// Disk is the simulated device: a head position, a clock and per-file
// extents. Each file gets its own contiguous address region, so an access is
// sequential exactly when it starts where the previous access (to any file)
// ended. It is safe for concurrent use.
type Disk struct {
	params Params

	mu      sync.Mutex
	head    int64
	nextID  int64
	extents map[string]int64 // file name -> base address
	elapsed time.Duration
	stats   Stats
}

// extentStride separates file base addresses; files never physically collide
// because the model only compares addresses for sequentiality.
const extentStride = int64(1) << 40

// NewDisk returns a Disk with the given parameters.
func NewDisk(p Params) *Disk {
	// The head starts parked at an address no file access can match, so
	// the very first access is charged its initial positioning seek.
	return &Disk{params: p, extents: make(map[string]int64), head: -1}
}

// Elapsed returns the simulated time spent in I/O so far.
func (d *Disk) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.elapsed
}

// Stats returns a snapshot of the accumulated I/O statistics.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Reset zeroes the clock and statistics but keeps file extents.
func (d *Disk) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.elapsed = 0
	d.stats = Stats{}
}

// base returns (allocating if needed) the address region base for name.
func (d *Disk) base(name string) int64 {
	if b, ok := d.extents[name]; ok {
		return b
	}
	b := d.nextID * extentStride
	d.nextID++
	d.extents[name] = b
	return b
}

// access charges the model cost for an n-byte access at offset off of the
// named file and advances the head.
func (d *Disk) access(name string, off int64, n int, write bool) {
	if n == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cached := write && !d.params.WriteThrough
	if !cached {
		addr := d.base(name) + off
		if addr != d.head {
			d.elapsed += d.params.Seek + d.params.HalfRotation
			d.stats.Seeks++
		}
		d.head = addr + int64(n)
	}
	d.elapsed += time.Duration(float64(n) / d.params.TransferRate * float64(time.Second))
	if write {
		d.stats.Writes++
		d.stats.BytesWritten += int64(n)
	} else {
		d.stats.Reads++
		d.stats.BytesRead += int64(n)
	}
}

// FS wraps an inner vfs.FS so that every positional access is charged to a
// Disk. A sort (extsort.Config.Disk) wraps its spill arena, so the disk sees
// each logical spill file at its logical offsets; over a vfs.MemFS the
// experiments are fully deterministic.
type FS struct {
	inner vfs.FS
	disk  *Disk
}

// NewFS returns a vfs.FS whose I/O is accounted against disk.
func NewFS(inner vfs.FS, disk *Disk) *FS { return &FS{inner: inner, disk: disk} }

type simFile struct {
	vfs.File
	name string
	disk *Disk
}

func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.disk.access(f.name, off, n, false)
	return n, err
}

func (f *simFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.disk.access(f.name, off, n, true)
	return n, err
}

// Create implements vfs.FS.
func (fs *FS) Create(name string) (vfs.File, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &simFile{File: f, name: name, disk: fs.disk}, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(name string) (vfs.File, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &simFile{File: f, name: name, disk: fs.disk}, nil
}

// Remove implements vfs.FS.
func (fs *FS) Remove(name string) error { return fs.inner.Remove(name) }

// Names implements vfs.FS.
func (fs *FS) Names() ([]string, error) { return fs.inner.Names() }
