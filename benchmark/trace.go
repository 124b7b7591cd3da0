package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// Spans are recorded from this package, around the calls the benchmark
// makes into each layer's public functions and inside the wrappers it puts
// on the interfaces the sorter is handed (vfs.FS, the Source, the Sink).
// Nothing inside the program under test is instrumented. Spans stay in
// memory and are written as JSON lines when the traced pass ends.

// span is one traced interval. A plain span covers one call. An aggregate
// span covers a lifetime — one file from open to close, one source, one
// sink — and carries the time actually spent inside its calls (BusyNS) and
// what they moved (Counts); one span per 4 KB page would cost more than the
// page.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	SortID int    `json:"sort_id"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Aggregate marks a lifetime span; BusyNS and Counts are meaningful
	// only then.
	Aggregate bool             `json:"aggregate,omitempty"`
	BusyNS    int64            `json:"busy_ns,omitempty"`
	Counts    map[string]int64 `json:"counts,omitempty"`
}

func (s span) duration() int64 { return s.End - s.Start }

// recorder collects spans. A nil *recorder records nothing, so the
// untraced and traced passes share one code path.
type recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	sortID  int
	current int // the span new spans are caused by
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// nextSort starts a new sort: its spans share a fresh identifier.
func (r *recorder) nextSort() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sortID++
	r.current = 0
	r.mu.Unlock()
}

func (r *recorder) add(name, detail string, aggregate bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: r.current, SortID: r.sortID,
		Name: name, Detail: detail, Start: r.now(), Aggregate: aggregate})
	return id
}

// push opens a plain span and makes it the cause of what follows; pop
// closes it and restores its own cause.
func (r *recorder) push(name string) int {
	if r == nil {
		return 0
	}
	id := r.add(name, "", false)
	r.mu.Lock()
	r.current = id
	r.mu.Unlock()
	return id
}

func (r *recorder) pop(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = r.now()
	r.current = s.Parent
}

// aggregate is the live handle of a lifetime span. Its counters may be
// bumped from several goroutines (the shards of a sharded sort).
type aggregate struct {
	r      *recorder
	id     int
	mu     sync.Mutex
	busy   int64
	counts map[string]int64
}

func (r *recorder) open(name, detail string) *aggregate {
	return &aggregate{r: r, id: r.add(name, detail, true), counts: map[string]int64{}}
}

// observe accounts one call that started at t0: its duration, one call
// under the given kind, and n bytes or elements moved.
func (a *aggregate) observe(t0 time.Time, kind string, n int64) {
	d := int64(time.Since(t0))
	a.mu.Lock()
	a.busy += d
	a.counts[kind+"_calls"]++
	if n > 0 {
		a.counts[kind] += n
	}
	a.mu.Unlock()
}

func (a *aggregate) close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	busy, counts := a.busy, a.counts
	a.mu.Unlock()
	a.r.mu.Lock()
	defer a.r.mu.Unlock()
	s := &a.r.spans[a.id-1]
	s.End, s.BusyNS, s.Counts = a.r.now(), busy, counts
}

// selfTimes returns, per span, its duration minus the part its children
// account for: the union of its plain children's intervals (clipped to
// the span, so overlapping children are not subtracted twice) plus the
// busy time of its aggregate children, which are lifetimes and cover the
// parent only while a call is in flight.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		covered := int64(0)
		var plain []span
		for _, c := range children[s.ID] {
			if c.Aggregate {
				covered += c.BusyNS
			} else {
				plain = append(plain, c)
			}
		}
		sort.Slice(plain, func(i, j int) bool { return plain[i].Start < plain[j].Start })
		edge := s.Start
		for _, c := range plain {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.duration() - covered
	}
	return self
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS times every call that reaches the file system. Each file gets
// one aggregate span from Create or Open to Close; Remove and Names go to
// one aggregate for the file system itself.
type tracedFS struct {
	fs  vfs.FS
	rec *recorder
	dir *aggregate
}

func newTracedFS(fs vfs.FS, rec *recorder) *tracedFS {
	return &tracedFS{fs: fs, rec: rec, dir: rec.open("vfs.dir", "")}
}

func (t *tracedFS) Create(name string) (vfs.File, error) {
	return t.file(name, "create", t.fs.Create)
}

func (t *tracedFS) Open(name string) (vfs.File, error) { return t.file(name, "open", t.fs.Open) }

func (t *tracedFS) file(name, how string, open func(string) (vfs.File, error)) (vfs.File, error) {
	a := t.rec.open("vfs.file", how+" "+name)
	t0 := time.Now()
	f, err := open(name)
	a.observe(t0, how, 0)
	if err != nil {
		a.close()
		return nil, err
	}
	return &tracedFile{f: f, a: a}, nil
}

func (t *tracedFS) Remove(name string) error {
	t0 := time.Now()
	err := t.fs.Remove(name)
	t.dir.observe(t0, "remove", 0)
	return err
}

func (t *tracedFS) Names() ([]string, error) {
	t0 := time.Now()
	names, err := t.fs.Names()
	t.dir.observe(t0, "names", 0)
	return names, err
}

type tracedFile struct {
	f vfs.File
	a *aggregate
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.f.ReadAt(p, off)
	f.a.observe(t0, "read", int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.f.WriteAt(p, off)
	f.a.observe(t0, "write", int64(n))
	return n, err
}

func (f *tracedFile) Size() (int64, error) {
	t0 := time.Now()
	n, err := f.f.Size()
	f.a.observe(t0, "size", 0)
	return n, err
}

func (f *tracedFile) Close() error {
	t0 := time.Now()
	err := f.f.Close()
	f.a.observe(t0, "close", 0)
	f.a.close()
	return err
}

// tracedSource times the sorter's pulls on its input: the time the sort
// spent waiting for the source.
type tracedSource[T any] struct {
	src *stream.SliceReader[T]
	a   *aggregate
}

func (s *tracedSource[T]) Read() (T, error) {
	t0 := time.Now()
	v, err := s.src.Read()
	s.a.observe(t0, "read", 1)
	return v, err
}

func (s *tracedSource[T]) ReadBatch(dst []T) (int, error) {
	t0 := time.Now()
	n, err := s.src.ReadBatch(dst)
	s.a.observe(t0, "read", int64(n))
	return n, err
}

func (s *tracedSource[T]) Remaining() int { return s.src.Remaining() }

// tracedSink times the sorter's pushes into the verifying sink.
type tracedSink[T any] struct {
	dst *verifySink[T]
	a   *aggregate
}

func (s *tracedSink[T]) Write(v T) error {
	t0 := time.Now()
	err := s.dst.Write(v)
	s.a.observe(t0, "write", 1)
	return err
}

func (s *tracedSink[T]) WriteBatch(src []T) error {
	t0 := time.Now()
	err := s.dst.WriteBatch(src)
	s.a.observe(t0, "write", int64(len(src)))
	return err
}
