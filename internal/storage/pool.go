package storage

import (
	"slices"
	"sync"
)

// Pool recycles the byte blocks of a spill path: the blocks run writers
// fill and hand to the backend, the buffers run readers decode from, and
// the windows block readers verify frames in. A block returns when its file
// closes and goes out again to the next run, merge operation, pass or sort
// that asks for its size — within a phase they all ask for the same — so a
// Sorter, whose sorts share one pool, allocates its working set of blocks
// once, not once per file or per sort.
//
// The pool never refuses or delays a Get — the memory budget is kept by how
// its callers size their requests (merge.Config divides it among the blocks
// one operation holds) — and the budget bounds what the pool keeps: at most
// a budget's worth of idle blocks, the oldest going to the garbage collector
// first, so the sizes of a finished phase make way for those of the running
// one. Peak reports the most bytes ever out at once, which is how tests
// hold the callers to the budget.
//
// A nil *Pool is valid and pools nothing: Get allocates, Put drops.
type Pool struct {
	mu     sync.Mutex
	free   [][]byte // idle blocks, oldest first
	idle   int      // bytes in free
	budget int
	out    int // bytes handed out and not yet returned
	peak   int
}

// Reserve declares a memory budget in bytes: the pool keeps up to the
// largest budget declared so far in idle blocks. Without one it keeps none.
func (p *Pool) Reserve(budget int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.budget = max(p.budget, budget)
	p.mu.Unlock()
}

// Budget returns the largest budget declared so far.
func (p *Pool) Budget() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.budget
}

// Get returns a block of length n, an idle one if there is one of exactly
// that size. Its contents are arbitrary.
func (p *Pool) Get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out += n
	p.peak = max(p.peak, p.out)
	for i, b := range p.free {
		if cap(b) == n {
			p.free = slices.Delete(p.free, i, i+1)
			p.idle -= n
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Put returns a block to the pool. The caller must not touch it again. A
// block the pool did not hand out (one a writer outgrew and reallocated,
// say) is as welcome as one it did.
func (p *Pool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out = max(p.out-cap(b), 0)
	p.free = append(p.free, b)
	p.idle += cap(b)
	drop := 0
	for ; p.idle > p.budget; drop++ {
		p.idle -= cap(p.free[drop])
	}
	p.free = slices.Delete(p.free, 0, drop)
}

// Peak returns the high-water mark of bytes out of the pool at once.
func (p *Pool) Peak() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// pooled is implemented by the backends this package builds.
type pooled interface{ blockPool() *Pool }

// PoolOf returns the block pool that travels with a backend built by New or
// NewRaw, and nil — which pools nothing — for any other.
func PoolOf(b Backend) *Pool {
	if p, ok := b.(pooled); ok {
		return p.blockPool()
	}
	return nil
}
