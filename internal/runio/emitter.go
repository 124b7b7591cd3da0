package runio

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// Emitter centralises the parameters run-generation algorithms need to
// create run files: the spill storage backend, a name allocator, the
// element codec and comparator, and buffer/layout sizes.
type Emitter[T any] struct {
	// Store is the spill backend run files are written to and read from
	// (see internal/storage).
	Store storage.Backend
	// Namer allocates unique file names.
	Namer *Namer
	// Codec encodes elements for storage.
	Codec codec.Codec[T]
	// Less orders elements; writers use it to validate run order.
	Less func(a, b T) bool
	// PageSize and PagesPerFile configure the backward file format
	// (0: defaults).
	PageSize int
	// PagesPerFile is the backward chain file length in pages (0: default).
	PagesPerFile int
	// KeyCodec, when set, supplies memcmp-ordered normalized key bytes
	// consistent with Less (see codec.KeyCodec). Run generators then cache
	// key prefixes in their heaps and sort batches on the normalized bytes,
	// and the merge matches on keys, calling Less only on the key ties of a
	// codec that is not total; the sorted output is byte-identical either
	// way. The driver sets it only after the codec passes the sampled order
	// check.
	KeyCodec codec.KeyCodec[T]
	// Checksums, when set, makes every writer the emitter creates keep the
	// order-insensitive content checksum of its stream (ContentSum), which
	// Close records as the stream's Segment.Sum. Resumable sorts commit the
	// sums of each run in the manifest at its boundary; off (the default)
	// no per-element CRC is ever computed.
	Checksums bool
	// Scratch, when set, recycles the generators' batch-sort memory across
	// the sorts that share it: a Sorter's (codec.Scratch).
	Scratch *codec.Scratch[T]

	// Block is the size of the blocks the streams Stream opens hand to
	// storage, forward blocks and chain writes alike, and what Open tells
	// the readers of runs. Zero means BlockBytes of the store's pool budget,
	// fixed when the first stream opens: the budget the blocks were sized
	// from, not one a merge may reserve later.
	Block int

	// open lists every stream the emitter opened that has not closed yet,
	// whatever its layout: what AbortOpen force-closes on a failure path.
	// mu guards it; it is a pointer so that Sibling can copy the settings.
	mu   *sync.Mutex
	open map[*streamBase[T]]struct{}
}

// NewEmitter returns an Emitter with default sizes writing through the raw
// (historical, pass-through) backend on fs.
func NewEmitter[T any](fs vfs.FS, prefix string, c codec.Codec[T], less func(a, b T) bool) *Emitter[T] {
	return NewEmitterOn[T](storage.NewRaw(fs), prefix, c, less)
}

// NewEmitterOn returns an Emitter with default sizes writing through the
// given spill backend.
func NewEmitterOn[T any](st storage.Backend, prefix string, c codec.Codec[T], less func(a, b T) bool) *Emitter[T] {
	return &Emitter[T]{Store: st, Namer: NewNamer(prefix), Codec: c, Less: less, mu: new(sync.Mutex)}
}

// Sibling returns an emitter that writes as e does — every setting copied —
// under a namer of its own at prefix, with no stream open.
func (e *Emitter[T]) Sibling(prefix string) *Emitter[T] {
	s := *e
	s.Namer, s.mu, s.open = NewNamer(prefix), new(sync.Mutex), nil
	return &s
}

// RecordEmitter returns an Emitter for the historical fixed 16-byte Record
// streams, the instantiation the paper's experiments use.
func RecordEmitter(fs vfs.FS, prefix string) *Emitter[record.Record] {
	return NewEmitter[record.Record](fs, prefix, codec.Record16{}, record.Less)
}

// PrefixFunc returns a closure computing the uint64 normalized-key prefix
// of an element, or nil when the emitter carries no KeyCodec. Each closure
// owns its scratch buffer: callers on different goroutines take their own.
func (e *Emitter[T]) PrefixFunc() func(T) uint64 {
	if e.KeyCodec == nil {
		return nil
	}
	return codec.PrefixFunc(e.KeyCodec)
}

// BlockBytes sizes the blocks run generation hands to storage, forward
// files and backward chains alike: an eighth of the memory budget declared
// on the store's pool, in whole pages, between one page — what it is without
// a budget — and 64 KiB, past which a larger write buys nothing. They sit
// outside the record budget the generator fills, one block per open stream.
// A sort's spill arena takes it as its extent size.
func BlockBytes(budget int) int {
	pages := min(budget/8, 64<<10) / DefaultPageSize
	return max(pages, 1) * DefaultPageSize
}

// StageLen is how many elements a run generator stages per stream it writes
// (stream.ElementWriter): a page of them, of 16 bytes when variable-width.
func (e *Emitter[T]) StageLen() int {
	return DefaultPageSize / max(e.Codec.FixedSize(), 16)
}

// Stream opens a fresh output stream of the run being generated: an
// ascending one stored as a forward file, or a descending one stored as an
// Appendix A backward chain, so the merge reads both forward. role
// distinguishes streams in file names (e.g. "rs", "s1"). It is for the one
// goroutine that generates runs, which also performs the stream's file
// operations: a file is complete when the stream's Close returns.
func (e *Emitter[T]) Stream(role string, descending bool) (StreamWriter[T], error) {
	name := e.Namer.Next(role)
	if e.Block == 0 {
		e.Block = BlockBytes(storage.PoolOf(e.Store).Budget())
	}
	if descending {
		w, err := NewBackwardWriter(e.Store, name, e.PageSize, e.PagesPerFile, e.Codec, e.Less)
		if err != nil {
			return nil, err
		}
		w.blockPages = min(max(e.Block/int(w.file.pageSize), 1), int(w.file.pages)-1)
		e.adopt(&w.streamBase)
		return w, nil
	}
	return e.NewWriter(name, e.Block)
}

// NewWriter creates a forward writer on the named file with an explicit
// buffer size. Unlike Stream it does not touch the Namer, so concurrent
// merge workers can use it with pre-allocated names.
func (e *Emitter[T]) NewWriter(name string, bufBytes int) (*Writer[T], error) {
	w, err := NewWriter(e.Store, name, bufBytes, e.Codec, e.Less)
	if err != nil {
		return nil, err
	}
	e.adopt(&w.streamBase)
	return w, nil
}

// adopt makes the emitter the owner of a stream it opened: the stream keeps
// its content sum when Checksums is on, and it is listed as live until it
// closes, so that a failure path can abort it.
func (e *Emitter[T]) adopt(s *streamBase[T]) {
	s.em, s.summed = e, e.Checksums
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.open == nil {
		e.open = make(map[*streamBase[T]]struct{})
	}
	e.open[s] = struct{}{}
}

// forget drops a stream that is no longer live.
func (e *Emitter[T]) forget(s *streamBase[T]) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.open, s)
}

// AbortOpen force-closes every stream the emitter opened that is still live:
// buffered pages are dropped and the underlying files closed. Failure paths
// call it before removing (or abandoning) spill files, so no handle outlives
// the sort — the leak a run generator invites when a source error makes it
// abandon its writers mid-run. (A merge worker's writer is closed before its
// operation returns.)
func (e *Emitter[T]) AbortOpen() {
	e.mu.Lock()
	live := e.open
	e.open = nil
	e.mu.Unlock()
	for s := range live {
		s.abort()
	}
}

// Open opens the run as its sorted pieces (OpenRun) on the emitter's store
// with the emitter's codec.
func (e *Emitter[T]) Open(r Run, bufBytes int) ([]*Reader[T], error) {
	return OpenRun(e.Store, r, bufBytes, e.Codec)
}
