package merge

import (
	"io"

	"repro/internal/stream"
)

// HeapMerger is the naive alternative to the loser tree: a binary heap of
// sources, costing up to 2·log2 k comparisons per record, comparator only. It
// lives beside the tests because that is all that uses it: it is the oracle
// FuzzTreeMatchesHeapMerger and the kernel tests hold the tree to, and the
// baseline of BenchmarkAblationMergeEngine.
type HeapMerger[T any] struct {
	leaves[T]
	cmp     func(a, b T) bool
	heap    []int // source indices ordered by head element
	closed  bool
	pendErr error // error deferred by ReadBatch after a partial batch
}

// NewHeapMerger builds a heap-based merger over the sources.
func NewHeapMerger[T any](srcs []Source[T], less func(a, b T) bool) (*HeapMerger[T], error) {
	m := &HeapMerger[T]{leaves: newLeaves(new(leafArena[T]), srcs), cmp: less}
	for i := range srcs {
		batch, err := m.refill(i)
		if err != nil {
			m.Close()
			return nil, err
		}
		if len(batch) == 0 {
			continue
		}
		m.heap = append(m.heap, i)
		m.up(len(m.heap) - 1)
	}
	return m, nil
}

func (m *HeapMerger[T]) less(i, j int) bool { return m.cmp(m.head(m.heap[i]), m.head(m.heap[j])) }

func (m *HeapMerger[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.less(i, p) {
			return
		}
		m.heap[i], m.heap[p] = m.heap[p], m.heap[i]
		i = p
	}
}

func (m *HeapMerger[T]) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(m.heap) && m.less(l, best) {
			best = l
		}
		if r < len(m.heap) && m.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		m.heap[i], m.heap[best] = m.heap[best], m.heap[i]
		i = best
	}
}

// next returns the next element in global sorted order.
func (m *HeapMerger[T]) next() (T, error) {
	var zero T
	if len(m.heap) == 0 {
		return zero, io.EOF
	}
	src := m.heap[0]
	rec := m.head(src)
	if m.pos[src]+1 < m.end[src] {
		m.pos[src]++
	} else if batch, err := m.refill(src); err != nil {
		return zero, err
	} else if len(batch) == 0 {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 0 {
		m.down(0)
	}
	return rec, nil
}

// ReadBatch fills dst with the next elements in global sorted order per the
// stream.BatchReader contract.
func (m *HeapMerger[T]) ReadBatch(dst []T) (int, error) {
	if m.closed {
		return 0, stream.ErrClosed
	}
	if m.pendErr != nil {
		err := m.pendErr
		m.pendErr = nil
		return 0, err
	}
	for n := range dst {
		v, err := m.next()
		if err != nil {
			if n > 0 {
				m.pendErr = err
				return n, nil
			}
			return 0, err
		}
		dst[n] = v
	}
	return len(dst), nil
}

// Close closes every source.
func (m *HeapMerger[T]) Close() error {
	if m.closed {
		return stream.ErrClosed
	}
	m.closed = true
	return m.closeAll()
}
