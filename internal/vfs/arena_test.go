package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"testing"
)

// arenaChecker drives an Arena and a MemFS model through the same
// operations and holds the arena to the model and to its own invariants.
type arenaChecker struct {
	t     *testing.T
	base  *MemFS
	a     *Arena
	model *MemFS
	files map[string]File // the arena handle of every live file
}

const fuzzExtent = 16

func newArenaChecker(t *testing.T) *arenaChecker {
	base := NewMemFS()
	return &arenaChecker{t: t, base: base, a: NewArena(base, "x.arena", fuzzExtent), model: NewMemFS(), files: map[string]File{}}
}

func (c *arenaChecker) create(name string) {
	f, err := c.a.Create(name)
	if err != nil {
		c.t.Fatalf("create %s: %v", name, err)
	}
	c.model.Create(name)
	c.files[name] = f
}

func (c *arenaChecker) write(name string, p []byte, off int64) {
	if _, err := c.files[name].WriteAt(p, off); err != nil {
		c.t.Fatalf("write %s at %d: %v", name, off, err)
	}
	m, _ := c.model.Open(name)
	m.WriteAt(p, off)
}

func (c *arenaChecker) remove(name string) {
	if err := c.a.Remove(name); err != nil {
		c.t.Fatalf("remove %s: %v", name, err)
	}
	c.model.Remove(name)
	if _, err := c.files[name].ReadAt(make([]byte, 1), 0); !errors.Is(err, os.ErrNotExist) {
		c.t.Fatalf("read of removed %s: %v, want os.ErrNotExist", name, err)
	}
	delete(c.files, name)
}

// reopen closes the arena and adopts its files in a new one over the same
// physical file, as a resumed sort does from its manifest.
func (c *arenaChecker) reopen() {
	var placed []ArenaFile
	names, _ := c.a.Names()
	for _, n := range names {
		pf, _ := c.a.Placement(n)
		placed = append(placed, pf)
	}
	if err := c.a.Close(); err != nil {
		c.t.Fatal(err)
	}
	c.a = NewArena(c.base, "x.arena", fuzzExtent)
	if err := c.a.Adopt(placed); err != nil {
		c.t.Fatalf("adopt: %v", err)
	}
	for _, n := range names {
		f, err := c.a.Open(n)
		if err != nil {
			c.t.Fatalf("open %s after adopt: %v", n, err)
		}
		c.files[n] = f
	}
}

// check holds every live file to the model and the extents to a partition
// of the physical file.
func (c *arenaChecker) check() {
	t := c.t
	names, _ := c.a.Names()
	want, _ := c.model.Names()
	if !slices.Equal(names, want) {
		t.Fatalf("arena holds %v, model %v", names, want)
	}
	for _, n := range names {
		m, _ := c.model.Open(n)
		size, _ := m.Size()
		exp := make([]byte, size)
		m.ReadAt(exp, 0)
		f, err := c.a.Open(n)
		if err != nil {
			t.Fatalf("open %s: %v", n, err)
		}
		if got, _ := f.Size(); got != size {
			t.Fatalf("%s: size %d, want %d", n, got, size)
		}
		got := make([]byte, size+3)
		k, err := f.ReadAt(got, 0)
		if int64(k) != size || err != io.EOF || !bytes.Equal(got[:k], exp) {
			t.Fatalf("%s: read %d bytes (%v) %x, want %d %x", n, k, err, got[:k], size, exp)
		}
		if k, err := f.ReadAt(got[:1], size); k != 0 || err != io.EOF {
			t.Fatalf("%s: read at its size %d: %d, %v; want io.EOF", n, size, k, err)
		}
		f.Close()
	}
	if _, err := c.a.Open("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("open of an unknown name: %v", err)
	}
	if err := c.a.Remove("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("remove of an unknown name: %v", err)
	}
	// The live extents, the free list and the held ones partition the
	// physical file: each extent in exactly one place.
	c.a.mu.Lock()
	defer c.a.mu.Unlock()
	seen := make([]int, c.a.extents)
	mark := func(e int64, where string) {
		if e < 0 || e >= c.a.extents {
			t.Fatalf("%s extent %d outside the %d of the physical file", where, e, c.a.extents)
		}
		seen[e]++
	}
	for _, n := range c.a.files {
		for _, e := range n.ext {
			if e >= 0 {
				mark(e, n.name)
			}
		}
	}
	for _, e := range c.a.free {
		mark(e, "free")
	}
	for _, e := range c.a.held {
		mark(e, "held")
	}
	for e, k := range seen {
		if k != 1 {
			t.Fatalf("extent %d is in %d places (free %v, held %v)", e, k, c.a.free, c.a.held)
		}
	}
	phys, _ := c.base.Names()
	if (len(c.a.files) == 0) != (len(phys) == 0) {
		t.Fatalf("%d files in the arena, physical files %v", len(c.a.files), phys)
	}
}

// FuzzArenaOps drives an arena through creates, writes at any offset and
// length (tail-first page runs, as a backward chain writes, included),
// reads, reopens, removes, holds and concurrent writers, against a MemFS.
// After every step each file reads as the model's — zeros where never
// written, io.EOF at its size — unknown names are os.ErrNotExist, and the
// live extents, the free list and the held extents partition the physical
// file exactly.
func FuzzArenaOps(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x05, 0x30, 0x02, 0x03, 0x04})
	f.Add([]byte{0x00, 0x08, 0x09, 0x21, 0x07, 0x05, 0x11, 0x02, 0x03, 0x10, 0x06, 0x04, 0x0c})
	f.Add([]byte("\x00\x08\x01\x09\x31\x41\x03\x02\x00\x0d\x07\x0a\x05\x06\x04\x0b\x0e"))
	f.Add([]byte("tail-first chains over recycled extents, then a reopen: \x00\x02\x03\x06\x04"))
	// Beside a live file, one is written and removed, and a chain reuses
	// its extents: the bytes between the header and the lowest page must
	// read as zeros.
	f.Add([]byte{0x08, 0x00, 0x02, 0x1f, 0x02, 0x1f, 0x02, 0x1f, 0x02, 0x1f, 0x04, 0x00, 0x03, 0x06, 0x04, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newArenaChecker(t)
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			op := next()
			name := fmt.Sprintf("f%d", op>>3&3)
			_, live := c.files[name]
			switch op & 7 {
			case 0:
				c.create(name)
			case 1: // a write anywhere
				if live {
					off, n := next()%97, 1+next()%40
					c.write(name, bytes.Repeat([]byte{byte(op | 1)}, n), int64(off))
				}
			case 2: // an append
				if live {
					size, _ := c.files[name].Size()
					c.write(name, bytes.Repeat([]byte{byte(op)}, 1+next()%33), size)
				}
			case 3: // a chain: pages tail first, then a header at 0
				if live {
					page, pages := 5+next()%7, 2+next()%5
					for i := pages - 1; i >= 1; i-- {
						c.write(name, bytes.Repeat([]byte{byte(i)}, page), int64(i*page))
					}
					c.write(name, []byte{0xc4, 0xa1, 0x1a}, 0)
				}
			case 4:
				if live {
					c.remove(name)
				}
			case 5:
				c.reopen()
			case 6: // two writers at once, each appending to its own file
				other := fmt.Sprintf("f%d", (op>>3+1)&3)
				if _, ok := c.files[other]; !live || !ok {
					break
				}
				n := 1 + next()%50
				var wg sync.WaitGroup
				for _, w := range []string{name, other} {
					size, _ := c.files[w].Size()
					m, _ := c.model.Open(w)
					m.WriteAt(bytes.Repeat([]byte{byte(len(w))}, n*3), size)
					wg.Add(1)
					go func(f File) {
						defer wg.Done()
						for i := 0; i < 3; i++ {
							f.WriteAt(bytes.Repeat([]byte{byte(len(w))}, n), size+int64(i*n))
						}
					}(c.files[w])
				}
				wg.Wait()
			case 7:
				if op&0x20 != 0 {
					c.a.Release()
				} else {
					c.a.Hold()
				}
			}
			c.check()
		}
	})
}

// TestArenaOneCreateOneUnlink spills a stream of files through an arena,
// two live at a time, and counts what reaches the base FS: one create and,
// once the last file goes, one remove. Freed extents are reused before the
// physical file grows, so it never outgrows the two live files.
func TestArenaOneCreateOneUnlink(t *testing.T) {
	base := &countingFS{FS: NewMemFS()}
	a := NewArena(base, "sort.arena", 64)
	block := bytes.Repeat([]byte{7}, 100)
	for i := 0; i < 20; i++ {
		f, err := a.Create(fmt.Sprintf("run%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := f.WriteAt(block, int64(j*len(block))); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		if i > 0 {
			if err := a.Remove(fmt.Sprintf("run%d", i-1)); err != nil {
				t.Fatal(err)
			}
		}
		if got, most := a.Size(), int64(2*5*64); got > most {
			t.Fatalf("file %d: arena is %d bytes, more than two files' %d: freed extents were not reused", i, got, most)
		}
	}
	if err := a.Remove("run19"); err != nil {
		t.Fatal(err)
	}
	if names, _ := base.Names(); len(names) != 0 {
		t.Fatalf("%v left on the base FS", names)
	}
	if base.creates != 1 || base.removes != 1 {
		t.Fatalf("%d creates and %d removes on the base FS, want one each", base.creates, base.removes)
	}
}

// countingFS counts the creates and removes that reach an FS. It is not
// faultfs, which imports this package.
type countingFS struct {
	FS
	creates, removes int
}

func (c *countingFS) Create(name string) (File, error) { c.creates++; return c.FS.Create(name) }
func (c *countingFS) Remove(name string) error         { c.removes++; return c.FS.Remove(name) }
