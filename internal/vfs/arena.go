package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
)

// Arena is an FS that keeps every file it holds in one physical file of
// another FS, as a list of fixed-size extents: a sort's spill files, which
// are created, filled, read once and removed by the hundred, cost the file
// system one create and one unlink in all. The logical files keep their
// names and their bytes; only where the bytes lie changes.
//
//   - Allocation. A write into a part of a file that has no extent yet takes
//     one from a LIFO free list, and grows the physical file only when that
//     list is empty. A removed file's extents go back on the list first to
//     last, so the next file to grow reuses them in the order they were
//     written, overwriting pages the file system already holds.
//   - Bytes never written. A file reads as zeros wherever it was never
//     written, like a sparse file: an extent taken off the free list is
//     cleared where the write that takes it leaves its old contents visible.
//   - Concurrency. Distinct files may be read and written from different
//     goroutines at once, each transfer positional I/O on the one physical
//     handle; a single file is written by one goroutine at a time. A transfer
//     holds the arena shared for its duration and whatever frees extents
//     holds it exclusively, so no transfer is ever in flight on an extent
//     that changes hands. A handle of a removed file fails with
//     os.ErrNotExist.
//   - Lifecycle. The physical file is created with the first file and
//     unlinked with the last, so removing everything is one unlink. Adopt
//     reopens the physical file an earlier arena left behind, given where
//     its files lie (Placement); Hold keeps the extents of files a durable
//     record still names from being reused until Release.
type Arena struct {
	base   FS
	name   string
	extent int64

	// xfer is held shared by every read and write and exclusively by every
	// call that frees extents.
	xfer sync.RWMutex
	mu   sync.Mutex // guards the fields below and every file's size and extents
	// f is the physical file, nil while closed; exists reports whether it
	// is on base, and extents how many extents it spans.
	f       File
	exists  bool
	extents int64
	files   map[string]*arenaFile
	free    []int64 // the LIFO free list: the next extent to reuse is last
	held    []int64 // extents of files removed while held
}

// arenaFile is one logical file: its size, and the extent each
// extent-sized piece of it lies in, -1 for a piece never written.
type arenaFile struct {
	name string
	size int64
	ext  []int64
	held bool // removing it parks its extents until Release
	gone bool // removed: its handles fail
	// inline holds ext for a file of up to eight extents, and created is
	// the handle Create returns, so neither costs an allocation of its own.
	inline  [8]int64
	created arenaHandle
}

// ArenaFile is where one file lies in an arena. A durable record of it lets
// a later arena adopt the file.
type ArenaFile struct {
	// Name is the file's name in the arena.
	Name string `json:"name"`
	// Size is the file's length in bytes.
	Size int64 `json:"size"`
	// Extents gives, for each extent-sized piece of the file in order, the
	// extent of the physical file holding it, -1 for a piece never written.
	Extents []int64 `json:"extents"`
}

// NewArena returns an empty arena storing its files as extents of extent
// bytes in the physical file name on base. Nothing touches base until the
// first file is created.
func NewArena(base FS, name string, extent int) *Arena {
	return &Arena{base: base, name: name, extent: int64(extent), files: make(map[string]*arenaFile)}
}

// ExtentSize returns the extent size in bytes.
func (a *Arena) ExtentSize() int { return int(a.extent) }

// Size returns the length of the physical file in whole extents, in bytes:
// what the arena occupies on the base FS.
func (a *Arena) Size() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.extents * a.extent
}

// notExist is the error of a name the arena does not hold.
func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

// physical returns the physical file, opening it — or, with create, creating
// it when it does not exist. a.mu is held.
func (a *Arena) physical(create bool) (File, error) {
	if a.f != nil {
		return a.f, nil
	}
	var err error
	switch {
	case a.exists:
		a.f, err = a.base.Open(a.name)
	case create:
		if a.f, err = a.base.Create(a.name); err == nil {
			a.exists, a.extents = true, 0
		}
	default:
		err = notExist("open", a.name)
	}
	return a.f, err
}

// Create implements FS. A file of the same name is replaced.
func (a *Arena) Create(name string) (File, error) {
	a.xfer.Lock()
	defer a.xfer.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.physical(true); err != nil {
		return nil, err
	}
	if old := a.files[name]; old != nil {
		a.release(old)
	}
	n := &arenaFile{name: name}
	n.ext = n.inline[:0]
	n.created = arenaHandle{a: a, n: n}
	a.files[name] = n
	return &n.created, nil
}

// Open implements FS. The handle may write as well as read.
func (a *Arena) Open(name string) (File, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.files[name]
	if n == nil {
		return nil, notExist("open", name)
	}
	if _, err := a.physical(false); err != nil {
		return nil, err
	}
	return &arenaHandle{a: a, n: n}, nil
}

// Remove implements FS: the file's extents go back on the free list (or are
// parked, if it is held), and the physical file is unlinked with the last.
func (a *Arena) Remove(name string) error {
	a.xfer.Lock()
	defer a.xfer.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.files[name]
	if n == nil {
		return notExist("remove", name)
	}
	delete(a.files, name)
	a.release(n)
	if len(a.files) == 0 {
		return a.unlink()
	}
	return nil
}

// release frees a file's extents, first to last on the LIFO list. a.mu and
// a.xfer are held.
func (a *Arena) release(n *arenaFile) {
	n.gone = true
	for i := len(n.ext) - 1; i >= 0; i-- {
		switch e := n.ext[i]; {
		case e < 0:
		case n.held:
			a.held = append(a.held, e)
		default:
			a.free = append(a.free, e)
		}
	}
}

// unlink closes and removes the physical file: the arena holds nothing.
func (a *Arena) unlink() error {
	var err error
	if a.f != nil {
		err = a.f.Close()
		a.f = nil
	}
	if a.exists {
		if rerr := a.base.Remove(a.name); rerr != nil && !errors.Is(rerr, os.ErrNotExist) && err == nil {
			err = rerr
		}
	}
	a.exists, a.extents, a.free, a.held = false, 0, a.free[:0], nil
	return err
}

// Names implements FS: the logical files, sorted.
func (a *Arena) Names() ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.files))
	for n := range a.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Close releases the physical file's handle, keeping every file: a later
// call that needs the physical file opens it again.
func (a *Arena) Close() error {
	a.xfer.Lock()
	defer a.xfer.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

// Placement returns where the named file lies.
func (a *Arena) Placement(name string) (ArenaFile, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.files[name]
	if n == nil {
		return ArenaFile{}, false
	}
	return ArenaFile{Name: name, Size: n.size, Extents: append([]int64(nil), n.ext...)}, true
}

// Hold keeps the extents of every file the arena now holds out of reuse
// once the file is removed, until Release: a durable record naming the
// files stays true of the bytes on disk while it is live.
func (a *Arena) Hold() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.files {
		n.held = true
	}
}

// Release ends Hold: the parked extents go back on the free list.
func (a *Arena) Release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range a.files {
		n.held = false
	}
	a.free = append(a.free, a.held...)
	a.held = nil
}

// Adopt makes the arena hold exactly the given files, as an earlier arena of
// the same name and extent size left them in the physical file on base, and
// rebuilds the free list from what they leave over. A file with an extent
// past the end of the physical file — one no write of it ever reached — is
// not adopted, and neither is any file when the physical
// file does not exist; an extent placed in two files is an error. With
// nothing adopted the physical file is unlinked.
func (a *Arena) Adopt(files []ArenaFile) error {
	a.xfer.Lock()
	defer a.xfer.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.files, a.free, a.held = make(map[string]*arenaFile), nil, nil
	if a.f == nil {
		f, err := a.base.Open(a.name)
		if errors.Is(err, os.ErrNotExist) {
			a.exists, a.extents = false, 0
			return nil
		}
		if err != nil {
			return err
		}
		a.f, a.exists = f, true
	}
	size, err := a.f.Size()
	if err != nil {
		return err
	}
	a.extents = (size + a.extent - 1) / a.extent
	owner := make(map[int64]string)
	seen := make(map[string]bool, len(files))
	for _, pf := range files {
		if seen[pf.Name] {
			return fmt.Errorf("vfs: arena %s: %s placed twice", a.name, pf.Name)
		}
		seen[pf.Name] = true
		present := true
		for _, e := range pf.Extents {
			if e < 0 {
				continue
			}
			if prev, ok := owner[e]; ok {
				return fmt.Errorf("vfs: arena %s: %s placed over %s (extent %d)", a.name, pf.Name, prev, e)
			}
			owner[e] = pf.Name
			present = present && e < a.extents
		}
		if present {
			a.files[pf.Name] = &arenaFile{name: pf.Name, size: pf.Size, ext: append([]int64(nil), pf.Extents...)}
		}
	}
	if len(a.files) == 0 {
		return a.unlink()
	}
	for e := a.extents - 1; e >= 0; e-- {
		if _, ok := owner[e]; !ok || a.files[owner[e]] == nil {
			a.free = append(a.free, e)
		}
	}
	return nil
}

// alloc takes an extent for a write, reporting whether it was in use before.
// a.mu is held.
func (a *Arena) alloc() (int64, bool) {
	if n := len(a.free); n > 0 {
		e := a.free[n-1]
		a.free = a.free[:n-1]
		return e, true
	}
	a.extents++
	return a.extents - 1, false
}

// place gives every piece of n in [off, end) an extent and returns the
// logical ranges a write there must clear first: those of the file that
// would otherwise show a reused extent's old bytes. a.mu is held.
func (a *Arena) place(n *arenaFile, off, end int64) [][2]int64 {
	var clear [][2]int64
	add := func(lo, hi int64) {
		if lo < hi {
			clear = append(clear, [2]int64{lo, hi})
		}
	}
	// A write past the end shows what lies between, in extents it has.
	for k := n.size / a.extent; n.size < off && k <= (off-1)/a.extent && k < int64(len(n.ext)); k++ {
		if n.ext[k] >= 0 {
			add(max(n.size, k*a.extent), min(off, (k+1)*a.extent))
		}
	}
	visible := max(n.size, end)
	if need := int((end-1)/a.extent + 1); need > cap(n.ext) {
		// Spill files grow an extent at a time: room for twice as many
		// keeps a long one to a few allocations.
		n.ext = slices.Grow(n.ext, 2*need-len(n.ext))
	}
	for k := off / a.extent; k <= (end-1)/a.extent; k++ {
		for int64(len(n.ext)) <= k {
			n.ext = append(n.ext, -1)
		}
		if n.ext[k] >= 0 {
			continue
		}
		e, reused := a.alloc()
		n.ext[k] = e
		if reused {
			lo, hi := k*a.extent, min((k+1)*a.extent, visible)
			add(lo, min(off, hi))
			add(max(end, lo), hi)
		}
	}
	return clear
}

// span calls fn on each physically contiguous stretch of n's bytes
// [off, off+len(b)) with b's share of it and its physical offset, -1 for a
// stretch in no extent, and returns how many bytes fn took before it failed.
func (a *Arena) span(n *arenaFile, b []byte, off int64, fn func(p []byte, at int64) (int, error)) (int, error) {
	at := func(pos int64) int64 {
		if k := pos / a.extent; k < int64(len(n.ext)) && n.ext[k] >= 0 {
			return n.ext[k]*a.extent + pos%a.extent
		}
		return -1
	}
	done := 0
	for done < len(b) {
		pos := off + int64(done)
		start := at(pos)
		m := min(int64(len(b)-done), a.extent-pos%a.extent)
		for int64(done)+m < int64(len(b)) {
			next := at(pos + m)
			if (start < 0) != (next < 0) || (start >= 0 && next != start+m) {
				break
			}
			m += min(int64(len(b)-done)-m, a.extent)
		}
		k, err := fn(b[done:done+int(m)], start)
		done += k
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// arenaHandle is an open logical file.
type arenaHandle struct {
	a      *Arena
	n      *arenaFile
	closed bool
}

// check fails an operation op on a closed handle or a removed file. a.mu
// is held.
func (h *arenaHandle) check(op string) error {
	switch {
	case h.closed:
		return os.ErrClosed
	case h.n.gone:
		return notExist(op, h.n.name)
	}
	return nil
}

// ready returns the physical file for a transfer of op on h. a.mu is held.
func (h *arenaHandle) ready(op string) (File, error) {
	if err := h.check(op); err != nil {
		return nil, err
	}
	return h.a.physical(false)
}

func (h *arenaHandle) ReadAt(p []byte, off int64) (int, error) {
	a := h.a
	a.xfer.RLock()
	defer a.xfer.RUnlock()
	a.mu.Lock()
	f, err := h.ready("read")
	size := h.n.size
	a.mu.Unlock()
	switch {
	case err != nil:
		return 0, err
	case off < 0:
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	case off >= size:
		return 0, io.EOF
	}
	want := p[:min(int64(len(p)), size-off)]
	n, err := a.span(h.n, want, off, func(b []byte, at int64) (int, error) {
		if at < 0 {
			clear(b)
			return len(b), nil
		}
		k, err := f.ReadAt(b, at)
		if err == io.EOF {
			// Past the physical end: a fresh extent not written that far.
			clear(b[k:])
			k, err = len(b), nil
		}
		return k, err
	})
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

func (h *arenaHandle) WriteAt(p []byte, off int64) (int, error) {
	a := h.a
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	a.xfer.RLock()
	defer a.xfer.RUnlock()
	a.mu.Lock()
	f, err := h.ready("write")
	var clear [][2]int64
	if err == nil {
		clear = a.place(h.n, off, off+int64(len(p)))
	}
	a.mu.Unlock()
	if err != nil {
		return 0, err
	}
	write := func(b []byte, at int64) (int, error) { return f.WriteAt(b, at) }
	for _, c := range clear {
		if _, err := a.span(h.n, make([]byte, c[1]-c[0]), c[0], write); err != nil {
			return 0, err
		}
	}
	n, err := a.span(h.n, p, off, write)
	a.mu.Lock()
	h.n.size = max(h.n.size, off+int64(n))
	a.mu.Unlock()
	return n, err
}

func (h *arenaHandle) Size() (int64, error) {
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	if err := h.check("size"); err != nil {
		return 0, err
	}
	return h.n.size, nil
}

func (h *arenaHandle) Close() error {
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}
