package storage

import "repro/internal/obs"

// Traced decorates a Backend with per-file trace spans on the "spill"
// track: every forward stream or paged chain file records one span from
// Create/Open to Close, annotated with the file name and the byte volume
// moved. Block-level calls inside a file pay no tracing cost beyond an
// int64 add. A nil tracer returns the backend unchanged.
func Traced(b Backend, tr *obs.Tracer) Backend {
	if tr == nil {
		return b
	}
	return &tracedBackend{Backend: b, tr: tr}
}

// tracedBackend wraps every file open in a span; all other Backend
// methods pass through via embedding.
type tracedBackend struct {
	Backend
	tr *obs.Tracer
}

func (t *tracedBackend) Create(name string) (BlockWriter, error) {
	w, err := t.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	sp := t.tr.StartOn("spill", "spill_write", obs.Str("file", name))
	return &tracedBlockWriter{w: w, sp: sp}, nil
}

func (t *tracedBackend) blockPool() *Pool { return PoolOf(t.Backend) }

func (t *tracedBackend) Open(name string) (BlockReader, error) {
	r, err := t.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	sp := t.tr.StartOn("spill", "spill_read", obs.Str("file", name))
	tr := &tracedBlockReader{r: r, sp: sp}
	if l, ok := r.(BlockLender); ok {
		return tracedBlockLender{tr, l}, nil
	}
	return tr, nil
}

func (t *tracedBackend) CreatePaged(name string, pageSize, pages int) (PageWriter, error) {
	w, err := t.Backend.CreatePaged(name, pageSize, pages)
	if err != nil {
		return nil, err
	}
	sp := t.tr.StartOn("spill", "spill_write", obs.Str("file", name))
	return &tracedPageWriter{w: w, sp: sp}, nil
}

func (t *tracedBackend) OpenPaged(name string) (PageReader, error) {
	r, err := t.Backend.OpenPaged(name)
	if err != nil {
		return nil, err
	}
	sp := t.tr.StartOn("spill", "spill_read", obs.Str("file", name))
	return &tracedPageReader{r: r, sp: sp}, nil
}

// tracedBlockWriter counts appended payload bytes into its file span.
type tracedBlockWriter struct {
	w     BlockWriter
	sp    *obs.Span
	bytes int64
}

func (w *tracedBlockWriter) Append(p []byte) error {
	w.bytes += int64(len(p))
	return w.w.Append(p)
}

// AppendInPlace implements InPlaceAppender for whatever is underneath.
func (w *tracedBlockWriter) AppendInPlace(block []byte) error {
	w.bytes += int64(len(block) - FrameHeadroom)
	return AppendBlock(w.w, block)
}

func (w *tracedBlockWriter) Close() error {
	err := w.w.Close()
	w.sp.End(obs.Int("bytes", w.bytes))
	return err
}

// tracedBlockReader counts payload bytes returned into its file span.
type tracedBlockReader struct {
	r     BlockReader
	sp    *obs.Span
	bytes int64
}

func (r *tracedBlockReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.bytes += int64(n)
	return n, err
}

func (r *tracedBlockReader) Close() error {
	err := r.r.Close()
	r.sp.End(obs.Int("bytes", r.bytes))
	return err
}

// tracedBlockLender is a tracedBlockReader over a reader that lends blocks.
type tracedBlockLender struct {
	*tracedBlockReader
	l BlockLender
}

func (r tracedBlockLender) NextBlock(sizeHint int) ([]byte, error) {
	p, err := r.l.NextBlock(sizeHint)
	r.bytes += int64(len(p))
	return p, err
}

// tracedPageWriter counts page and tail payload bytes into its file span.
type tracedPageWriter struct {
	w     PageWriter
	sp    *obs.Span
	bytes int64
}

func (w *tracedPageWriter) WritePage(idx int, pages []byte) error {
	w.bytes += int64(len(pages))
	return w.w.WritePage(idx, pages)
}

func (w *tracedPageWriter) WriteTail(idx int, payload []byte) (int, error) {
	w.bytes += int64(len(payload))
	return w.w.WriteTail(idx, payload)
}

func (w *tracedPageWriter) WriteHeader(hdr []byte) error {
	w.bytes += int64(len(hdr))
	return w.w.WriteHeader(hdr)
}

func (w *tracedPageWriter) Close() error {
	err := w.w.Close()
	w.sp.End(obs.Int("bytes", w.bytes))
	return err
}

// tracedPageReader counts payload bytes returned into its file span.
type tracedPageReader struct {
	r     PageReader
	sp    *obs.Span
	bytes int64
}

func (r *tracedPageReader) ReadHeader(p []byte) error { return r.r.ReadHeader(p) }

func (r *tracedPageReader) Seek(startPage, startPos, pageSize, pages int) error {
	return r.r.Seek(startPage, startPos, pageSize, pages)
}

func (r *tracedPageReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.bytes += int64(n)
	return n, err
}

func (r *tracedPageReader) Close() error {
	err := r.r.Close()
	r.sp.End(obs.Int("bytes", r.bytes))
	return err
}
