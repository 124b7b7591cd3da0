package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/codec"
	"repro/internal/distsort"
	"repro/internal/extsort"
	"repro/internal/heap"
	"repro/internal/manifest"
	"repro/internal/merge"
	"repro/internal/model"
	"repro/internal/policy"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// perLayerMetrics are the numbers of single layers, one layer per package
// of the program under test. They have no bound: they say where time
// went, and the end-to-end metrics say whether a change was worth it.
// README.md maps each to the end-to-end metric it should move.
var perLayerMetrics = []metric{
	{Name: "stream.copy_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "heap.double_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "heap.single_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.2wrs.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.rs.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.alternating.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.quick.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.auto.gen_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.2wrs.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "policy.rs.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "policy.alternating.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "policy.quick.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "policy.auto.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "policy.auto.switches", Unit: "count", Better: "lower"},
	{Name: "policy.auto.time_over_best_fixed", Unit: "ratio", Better: "lower"},
	{Name: "policy.auto.runs_over_best_fixed", Unit: "ratio", Better: "lower"},
	{Name: "policy.probe_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "policy.model_run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "codec.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "codec.key_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "runio.write_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "runio.read_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "runio.backward_write_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "runio.backward_read_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "storage.write_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "storage.read_ns_per_kib", Unit: "ns", Better: "lower"},
	{Name: "storage.stored_over_raw", Unit: "ratio", Better: "lower"},
	{Name: "storage.blocks_written", Unit: "count", Better: "lower"},
	{Name: "storage.verify_failures", Unit: "count", Better: "lower"},
	{Name: "vfs.busy_s", Unit: "s", Better: "lower"},
	{Name: "vfs.files_created", Unit: "count", Better: "lower"},
	{Name: "vfs.write_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.read_calls", Unit: "count", Better: "lower"},
	{Name: "vfs.bytes_written", Unit: "B", Better: "lower"},
	{Name: "vfs.bytes_read", Unit: "B", Better: "lower"},
	{Name: "merge.tree_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "merge.ns_per_rec_pass", Unit: "ns", Better: "lower"},
	{Name: "merge.passes", Unit: "count", Better: "lower"},
	{Name: "merge.ops", Unit: "count", Better: "lower"},
	{Name: "merge.moved_over_n", Unit: "ratio", Better: "lower"},
	{Name: "extsort.generate_s", Unit: "s", Better: "lower"},
	{Name: "extsort.merge_s", Unit: "s", Better: "lower"},
	{Name: "extsort.generate_self_s", Unit: "s", Better: "lower"},
	{Name: "extsort.merge_self_s", Unit: "s", Better: "lower"},
	{Name: "extsort.source_wait_s", Unit: "s", Better: "lower"},
	{Name: "extsort.sink_busy_s", Unit: "s", Better: "lower"},
	{Name: "extsort.runs", Unit: "count", Better: "lower"},
	{Name: "extsort.run_len_over_mem", Unit: "ratio", Better: "higher"},
	{Name: "extsort.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "distsort.partition_s", Unit: "s", Better: "lower"},
	{Name: "distsort.merge_s", Unit: "s", Better: "lower"},
	{Name: "distsort.cpu_over_single", Unit: "ratio", Better: "lower"},
	{Name: "distsort.wall_over_single", Unit: "ratio", Better: "lower"},
	{Name: "distsort.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "manifest.append_us_per_run", Unit: "us", Better: "lower"},
	{Name: "manifest.bytes_per_run", Unit: "B", Better: "lower"},
	{Name: "manifest.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "ledger.explained_frac", Unit: "ratio", Better: "higher"},
	{Name: "ledger.unexplained_s", Unit: "s", Better: "lower"},
}

// ledger accumulates per-layer numbers over a workload's datasets: ratios
// as a sum of numerators over a sum of denominators (so ns/record is total
// time over total records), plain sums, and worst cases. Each contribution
// is also kept as a row of the dataset it came from.
type ledger struct {
	num, den map[string]float64
	dataset  string
	rows     map[string]map[string]float64
}

func newLedger() *ledger {
	return &ledger{num: map[string]float64{}, den: map[string]float64{}, rows: map[string]map[string]float64{}}
}

func (l *ledger) row(name string, v float64) {
	if l.rows[l.dataset] == nil {
		l.rows[l.dataset] = map[string]float64{}
	}
	l.rows[l.dataset][name] = v
}

func (l *ledger) ratio(name string, num, den float64) {
	l.num[name] += num
	l.den[name] += den
	if den != 0 {
		l.row(name, num/den)
	}
}

func (l *ledger) perRec(name string, d time.Duration, records int) {
	l.ratio(name, float64(d.Nanoseconds()), float64(records))
}

func (l *ledger) sum(name string, v float64) {
	l.num[name] += v
	l.row(name, v)
}

func (l *ledger) worst(name string, v float64) {
	l.num[name] = max(l.num[name], v)
	l.row(name, v)
}

func (l *ledger) value(name string) float64 {
	if d := l.den[name]; d != 0 {
		return l.num[name] / d
	}
	return l.num[name]
}

func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// discardBackend is a spill backend that accepts every write and keeps
// nothing: generation and run writing onto it cost their CPU and no I/O.
type discardBackend struct{}

var errDiscarded = errors.New("benchmark: the discarding backend holds no data")

func (discardBackend) Create(string) (storage.BlockWriter, error) { return discardFile{}, nil }
func (discardBackend) Open(string) (storage.BlockReader, error)   { return nil, errDiscarded }
func (discardBackend) CreatePaged(string, int, int) (storage.PageWriter, error) {
	return discardFile{}, nil
}
func (discardBackend) OpenPaged(string) (storage.PageReader, error) { return nil, errDiscarded }
func (discardBackend) Remove(string) error                          { return nil }
func (discardBackend) Names() ([]string, error)                     { return nil, nil }
func (discardBackend) Stats() storage.IOStats                       { return storage.IOStats{} }
func (discardBackend) String() string                               { return "discard" }

type discardFile struct{}

func (discardFile) Append([]byte) error                { return nil }
func (discardFile) WritePage(int, []byte) error        { return nil }
func (discardFile) WriteTail(int, []byte) (int, error) { return 0, nil }
func (discardFile) WriteHeader([]byte) error           { return nil }
func (discardFile) Close() error                       { return nil }

// nullFS is a file system whose files accept writes and keep only their
// size: a backend over it costs its own framing, checksums and
// compression, not the growth of an in-memory file.
type nullFS struct{}

func (nullFS) Create(string) (vfs.File, error) { return &nullFile{}, nil }
func (nullFS) Open(string) (vfs.File, error)   { return nil, errDiscarded }
func (nullFS) Remove(string) error             { return nil }
func (nullFS) Names() ([]string, error)        { return nil, nil }

type nullFile struct{ size int64 }

func (f *nullFile) ReadAt([]byte, int64) (int, error) { return 0, errDiscarded }
func (f *nullFile) WriteAt(p []byte, off int64) (int, error) {
	f.size = max(f.size, off+int64(len(p)))
	return len(p), nil
}
func (f *nullFile) Close() error         { return nil }
func (f *nullFile) Size() (int64, error) { return f.size, nil }

// countWriter is a batch-capable Writer that only counts.
type countWriter[T any] struct{ n int64 }

func (c *countWriter[T]) Write(T) error            { c.n++; return nil }
func (c *countWriter[T]) WriteBatch(src []T) error { c.n += int64(len(src)); return nil }

// sliceSource is an in-memory merge input.
type sliceSource[T any] struct{ *stream.SliceReader[T] }

func (sliceSource[T]) Close() error { return nil }

// drain reads a batch stream to its end.
func drain[T any](r stream.BatchReader[T]) (int, error) {
	buf := make([]T, stream.DefaultBatchLen)
	total := 0
	for {
		n, err := r.ReadBatch(buf)
		total += n
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// writeBatches feeds vals to w in batches of the library's own length.
func writeBatches[T any](w stream.BatchWriter[T], vals []T) error {
	for len(vals) > 0 {
		n := min(len(vals), stream.DefaultBatchLen)
		if err := w.WriteBatch(vals[:n]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// backwardPages is extsort's sizing of backward chain files, which is not
// exported: about one memory-load of elements per file.
func backwardPages(memory, elemBytes int) int {
	pages := (2*memory*elemBytes+runio.DefaultPageSize-1)/runio.DefaultPageSize + 2
	return min(max(pages, 4), runio.DefaultPagesPerFile)
}

// prober runs the layer probes of one dataset. gen is the input the
// generation probes run over and small a prefix of it for everything else
// (see probeLens); memory, fan-in and storage are the workload's own.
type prober[T any] struct {
	w          *workload[T]
	l          *ledger
	t          *tally
	cfg        extsort.Config
	gen, small []T
	sorted     []T // small, sorted ascending
	elemBytes  int
	dir        string // a real directory for the probes that sort
}

// probeLens picks the probe input sizes for a dataset of n elements: a
// quarter of it, except that generation is probed over at least two
// memory-loads (or everything) — a generator that never fills its heap
// shows neither its steady-state cost nor its run length.
func probeLens(n, memory int) (gen, small int) {
	small = max(n/4, 1)
	return max(small, min(n, 2*memory)), small
}

func (pr *prober[T]) emitter(store storage.Backend, prefix string) *runio.Emitter[T] {
	em := runio.NewEmitterOn(store, prefix, pr.w.ops.Codec, pr.w.less)
	em.KeyCodec = pr.w.ops.KeyCodec // the sort arms it after its sampled check; these types pass
	em.PagesPerFile = backwardPages(pr.cfg.Memory, pr.elemBytes)
	return em
}

func (pr *prober[T]) run() error {
	pr.elemBytes = pr.w.ops.Codec.FixedSize()
	if pr.elemBytes == 0 {
		pr.elemBytes = 32 // extsort's estimate for variable-width codecs
	}
	less := pr.w.less
	pr.sorted = slices.Clone(pr.small)
	slices.SortFunc(pr.sorted, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	for _, probe := range []func() error{
		pr.stream, pr.heaps, pr.policies, pr.codecs, pr.runio, pr.storage,
		pr.mergeTree, pr.mergePass, pr.manifest, pr.distsort,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func (pr *prober[T]) stream() error {
	var sink countWriter[T]
	d, err := timed(func() error {
		_, err := stream.Copy[T](&sink, stream.NewSliceReader(pr.small))
		return err
	})
	pr.l.perRec("stream.copy_ns_per_rec", d, len(pr.small))
	return err
}

// heaps times the replacement-selection step — pop the top, push the next
// input element — on a heap of the workload's memory (or half the probe
// input if that is smaller), with the cached key prefixes the keyed
// generators use.
func (pr *prober[T]) heaps() error {
	size := min(pr.cfg.Memory, len(pr.small)/2)
	if size < 2 {
		return nil
	}
	prefix := func(T) uint64 { return 0 }
	if kc := pr.w.ops.KeyCodec; kc != nil {
		prefix = codec.PrefixFunc(kc)
	}
	item := func(v T) heap.Item[T] { return heap.Item[T]{Rec: v, Key: prefix(v)} }
	fill, rest := pr.small[:size], pr.small[size:]

	single := heap.New(size, false, pr.w.less)
	for _, v := range fill {
		single.Push(item(v))
	}
	t0 := time.Now()
	for _, v := range rest {
		single.Pop()
		single.Push(item(v))
	}
	pr.l.perRec("heap.single_ns_per_rec", time.Since(t0), len(rest))

	double := heap.NewDouble(size, pr.w.less)
	for i, v := range fill {
		if i%2 == 0 {
			double.PushTop(item(v))
		} else {
			double.PushBottom(item(v))
		}
	}
	t0 = time.Now()
	for i, v := range rest {
		if i%2 == 0 {
			double.PopTop()
			double.PushTop(item(v))
		} else {
			double.PopBottom()
			double.PushBottom(item(v))
		}
	}
	pr.l.perRec("heap.double_ns_per_rec", time.Since(t0), len(rest))
	return nil
}

// policies runs every generator over the same input onto the discarding
// backend, which separates generation CPU from I/O, and compares auto's
// choice with the best fixed policy's time and run count.
func (pr *prober[T]) policies() error {
	mem := pr.cfg.Memory
	var autoTime, bestTime time.Duration
	var autoRuns, bestRuns int
	for _, kind := range policy.Kinds {
		em := pr.emitter(discardBackend{}, "probe")
		var res policy.Result
		d, err := timed(func() (err error) {
			res, err = policy.Generate(kind, stream.NewSliceReader(pr.gen), em,
				policy.Config{Memory: mem, TWRS: pr.cfg.TWRS}, pr.w.ops.Key)
			return err
		})
		if err != nil {
			return fmt.Errorf("policy %v: %w", kind, err)
		}
		name := "policy." + kind.String()
		pr.l.perRec(name+".gen_ns_per_rec", d, int(res.Records))
		pr.l.ratio(name+".run_len_over_mem", float64(res.Records), float64(len(res.Runs)*mem))
		if kind == policy.Auto {
			autoTime, autoRuns = d, len(res.Runs)
			pr.l.sum("policy.auto.switches", float64(res.Switches))
			continue
		}
		if bestTime == 0 || d < bestTime {
			bestTime = d
		}
		if bestRuns == 0 || len(res.Runs) < bestRuns {
			bestRuns = len(res.Runs)
		}
	}
	pr.l.worst("policy.auto.time_over_best_fixed", autoTime.Seconds()/bestTime.Seconds())
	pr.l.worst("policy.auto.runs_over_best_fixed", float64(autoRuns)/float64(bestRuns))

	sample := pr.gen[:min(len(pr.gen), mem)] // auto probes one memory-load
	t0 := time.Now()
	policy.Measure(sample, pr.w.less)
	pr.l.perRec("policy.probe_ns_per_rec", time.Since(t0), len(sample))

	// The model is of RS over uniform keys and independent of the input:
	// its steady state is the 2.0 the measured rs.run_len_over_mem of a
	// random workload is read against.
	lengths, _, err := model.EstimateRunLengths(model.Config{}, 4)
	if err != nil {
		return err
	}
	pr.l.worst("policy.model_run_len_over_mem", lengths[len(lengths)-1])
	return nil
}

func (pr *prober[T]) codecs() error {
	c := pr.w.ops.Codec
	var size int
	var scratch []byte
	for _, v := range pr.small { // untimed: size the buffer so the timed pass never grows it
		scratch = c.Append(scratch[:0], v)
		size += len(scratch)
	}
	enc := make([]byte, 0, size)
	t0 := time.Now()
	for _, v := range pr.small {
		enc = c.Append(enc, v)
	}
	pr.l.perRec("codec.encode_ns_per_rec", time.Since(t0), len(pr.small))

	t0 = time.Now()
	for rest := enc; len(rest) > 0; {
		_, n, err := c.Decode(rest)
		if err != nil {
			return fmt.Errorf("codec decode: %w", err)
		}
		rest = rest[n:]
	}
	pr.l.perRec("codec.decode_ns_per_rec", time.Since(t0), len(pr.small))

	if kc := pr.w.ops.KeyCodec; kc != nil {
		var key []byte
		t0 = time.Now()
		for _, v := range pr.small {
			key = kc.AppendKey(key[:0], v)
		}
		pr.l.perRec("codec.key_ns_per_rec", time.Since(t0), len(pr.small))
	}
	return nil
}

// runio times the forward and the backward run formats: writes onto the
// discarding backend, reads from an in-memory one, through buffers of the
// size the workload's merge gives each input.
func (pr *prober[T]) runio() error {
	c, less, n := pr.w.ops.Codec, pr.w.less, len(pr.sorted)
	readBuf := pr.cfg.Memory * pr.elemBytes / (pr.cfg.FanIn + 1)
	mem := storage.NewRaw(vfs.NewMemFS())
	pages := backwardPages(pr.cfg.Memory, pr.elemBytes)
	descending := slices.Clone(pr.sorted)
	slices.Reverse(descending)

	forward := func(st storage.Backend) (time.Duration, error) {
		return timed(func() error {
			w, err := runio.NewWriter(st, "fwd", 0, c, less)
			if err != nil {
				return err
			}
			if err := writeBatches[T](w, pr.sorted); err != nil {
				return err
			}
			return w.Close()
		})
	}
	files := 0
	backward := func(st storage.Backend) (time.Duration, error) {
		return timed(func() error {
			w, err := runio.NewBackwardWriter(st, "bwd", 0, pages, c, less)
			if err != nil {
				return err
			}
			if err := writeBatches[T](w, descending); err != nil {
				return err
			}
			files = w.Files()
			return w.Close()
		})
	}

	d, err := forward(discardBackend{})
	if err != nil {
		return fmt.Errorf("runio write: %w", err)
	}
	pr.l.perRec("runio.write_ns_per_rec", d, n)
	if _, err := forward(mem); err != nil {
		return err
	}
	d, err = timed(func() error {
		r, err := runio.NewReader(mem, "fwd", readBuf, c)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = drain[T](r)
		return err
	})
	if err != nil {
		return fmt.Errorf("runio read: %w", err)
	}
	pr.l.perRec("runio.read_ns_per_rec", d, n)

	if d, err = backward(discardBackend{}); err != nil {
		return fmt.Errorf("runio backward write: %w", err)
	}
	pr.l.perRec("runio.backward_write_ns_per_rec", d, n)
	if _, err := backward(mem); err != nil {
		return err
	}
	d, err = timed(func() error {
		r, err := runio.NewBackwardReader(mem, "bwd", files, readBuf, c)
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = drain[T](r)
		return err
	})
	if err != nil {
		return fmt.Errorf("runio backward read: %w", err)
	}
	pr.l.perRec("runio.backward_read_ns_per_rec", d, n)
	return nil
}

// storage moves the encoded probe input through the workload's own
// backend, one page per block: written onto a file system that keeps
// nothing, then (untimed) onto an in-memory one and read back from it.
func (pr *prober[T]) storage() error {
	var enc []byte
	for _, v := range pr.small {
		enc = pr.w.ops.Codec.Append(enc, v)
	}
	kib := float64(len(enc)) / 1024
	write := func(fs vfs.FS) (storage.Backend, time.Duration, error) {
		st, err := storage.New(fs, pr.cfg.Storage)
		if err != nil {
			return nil, 0, err
		}
		d, err := timed(func() error {
			w, err := st.Create("blocks")
			if err != nil {
				return err
			}
			for rest := enc; len(rest) > 0; {
				n := min(len(rest), runio.DefaultPageSize)
				if err := w.Append(rest[:n]); err != nil {
					return err
				}
				rest = rest[n:]
			}
			return w.Close()
		})
		return st, d, err
	}
	_, d, err := write(nullFS{})
	if err != nil {
		return fmt.Errorf("storage write: %w", err)
	}
	pr.l.ratio("storage.write_ns_per_kib", float64(d.Nanoseconds()), kib)
	st, _, err := write(vfs.NewMemFS())
	if err != nil {
		return err
	}
	d, err = timed(func() error {
		r, err := st.Open("blocks")
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = io.Copy(io.Discard, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("storage read: %w", err)
	}
	pr.l.ratio("storage.read_ns_per_kib", float64(d.Nanoseconds()), kib)
	return nil
}

// mergeTree times the loser tree alone: fan-in sorted in-memory inputs,
// no codec, no storage.
func (pr *prober[T]) mergeTree() error {
	k := pr.cfg.FanIn
	parts := make([][]T, k)
	for i, v := range pr.sorted {
		parts[i%k] = append(parts[i%k], v)
	}
	srcs := make([]merge.Source[T], k)
	for i, p := range parts {
		srcs[i] = sliceSource[T]{stream.NewSliceReader(p)}
	}
	d, err := timed(func() error {
		tree, err := merge.NewLoserTree(srcs, pr.w.less)
		if err != nil {
			return err
		}
		defer tree.Close()
		_, err = drain[T](tree)
		return err
	})
	pr.l.perRec("merge.tree_ns_per_rec", d, len(pr.sorted))
	return err
}

// mergePass times merge.Merge — reads, the keyed engine, intermediate
// writes — over runs the workload's own policy generated onto an
// in-memory backend, per record per trip through a merge.
func (pr *prober[T]) mergePass() error {
	st, err := storage.New(vfs.NewMemFS(), pr.cfg.Storage)
	if err != nil {
		return err
	}
	em := pr.emitter(st, "probe")
	gen, err := policy.Generate(pr.cfg.Policy, stream.NewSliceReader(pr.small), em,
		policy.Config{Memory: pr.cfg.Memory, TWRS: pr.cfg.TWRS}, pr.w.ops.Key)
	if err != nil {
		return fmt.Errorf("merge probe generation: %w", err)
	}
	var sink countWriter[T]
	var ms merge.Stats
	d, err := timed(func() (err error) {
		ms, err = merge.Merge(em, gen.Runs, &sink, merge.Config{
			FanIn: pr.cfg.FanIn, MemoryBytes: pr.cfg.Memory * pr.elemBytes, Workers: 1})
		return err
	})
	if err != nil {
		return fmt.Errorf("merge probe: %w", err)
	}
	if sink.n != gen.Records {
		return fmt.Errorf("merge probe: %d records out, %d in", sink.n, gen.Records)
	}
	pr.l.ratio("merge.ns_per_rec_pass", float64(d.Nanoseconds()), float64(gen.Records+ms.RecordsMoved))
	return nil
}

// sortOn runs one verified sort of the small probe input in the probe
// directory through sortFn and returns its wall and CPU time.
func (pr *prober[T]) sortOn(sortFn func(src stream.Reader[T], dst stream.Writer[T], fs vfs.FS) (extsort.Stats, error)) (st extsort.Stats, wall, cpu time.Duration, err error) {
	want := fingerprintOf(pr.small, pr.w.hash)
	c0, t0 := cpuNow(), time.Now()
	st, err = verified(pr.t, pr.w, func() fingerprint { return want }, func(dst *verifySink[T]) (extsort.Stats, error) {
		return sortFn(stream.NewSliceReader(pr.small), dst, vfs.NewOSFS(pr.dir))
	})
	return st, time.Since(t0), cpuNow() - c0, err
}

// manifest times the manifest writer alone, then prices durability as a
// whole: the same 2wrs sort with and without a manifest.
func (pr *prober[T]) manifest() error {
	const appends = 256
	fs := vfs.NewOSFS(pr.dir)
	w, err := manifest.Create(fs, "probe.manifest", manifest.Header{
		Prefix: "probe", Codec: "probe", Compression: "raw", Generation: "probe"})
	if err != nil {
		return err
	}
	defer fs.Remove("probe.manifest")
	size := func() (int64, error) {
		f, err := fs.Open("probe.manifest")
		if err != nil {
			return 0, err
		}
		defer f.Close()
		return f.Size()
	}
	header, err := size()
	if err != nil {
		return err
	}
	mem := int64(pr.cfg.Memory)
	run := manifest.Run{ // the shape of a 2WRS boundary: four streams and a carry file
		Records: 2 * mem, Concatenable: true, Policy: "2wrs",
		Segments: []manifest.Segment{
			{Name: "probe-0001-s4", Records: mem / 50, Backward: true, Files: 1, Sum: 0x9e3779b97f4a7c15},
			{Name: "probe-0002-s3", Records: mem, Sum: 0xbf58476d1ce4e5b9},
			{Name: "probe-0003-s2", Records: mem, Backward: true, Files: 1, Sum: 0x94d049bb133111eb},
			{Name: "probe-0004-s1", Records: mem / 50, Sum: 0xcbf29ce484222325},
		},
		CarryName: "probe-0005-carry", CarryRecords: mem, CarrySum: 0x100000001b3,
		InputPos: 3 * mem, NamerSeq: 5,
	}
	d, err := timed(func() error {
		for i := 0; i < appends; i++ {
			if err := w.AppendRun(run); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	total, err := size()
	if err != nil {
		return err
	}
	pr.l.ratio("manifest.append_us_per_run", float64(d.Microseconds()), appends)
	pr.l.ratio("manifest.bytes_per_run", float64(total-header), appends)

	cfg := pr.cfg
	cfg.Policy, cfg.Prefix = policy.TwoWayRS, "tax"
	var walls [2]time.Duration
	for i, durable := range []bool{false, true} {
		cfg.Manifest = durable
		_, walls[i], _, err = pr.sortOn(func(src stream.Reader[T], dst stream.Writer[T], fs vfs.FS) (extsort.Stats, error) {
			return extsort.Sort(src, dst, fs, cfg, pr.w.ops)
		})
		if err != nil {
			return err
		}
	}
	pr.l.ratio("manifest.tax_ratio", walls[1].Seconds(), walls[0].Seconds())
	return nil
}

// distsort prices sharding: the workload's configuration over two range
// shards against the same configuration unsharded, wall and CPU.
func (pr *prober[T]) distsort() error {
	cfg := pr.cfg
	cfg.Prefix = "shard"
	_, wall1, cpu1, err := pr.sortOn(func(src stream.Reader[T], dst stream.Writer[T], fs vfs.FS) (extsort.Stats, error) {
		return extsort.Sort(src, dst, fs, cfg, pr.w.ops)
	})
	if err != nil {
		return err
	}
	st, wall2, cpu2, err := pr.sortOn(func(src stream.Reader[T], dst stream.Writer[T], fs vfs.FS) (extsort.Stats, error) {
		// The sample that picks the splitters defaults to one memory-load,
		// and an input that fits inside it is not sharded at all.
		return distsort.Sort(src, dst, fs, distsort.Config{
			Shards: 2, SampleLimit: min(cfg.Memory, len(pr.small)/4), Extsort: cfg}, pr.w.ops)
	})
	if err != nil {
		return err
	}
	for _, ph := range st.Phases {
		pr.l.sum("distsort."+ph.Name+"_s", ph.Wall.Seconds())
	}
	pr.l.ratio("distsort.wall_over_single", wall2.Seconds(), wall1.Seconds())
	pr.l.ratio("distsort.cpu_over_single", cpu2.Seconds(), cpu1.Seconds())
	if len(st.ShardRecords) > 0 {
		var most, total int64
		for _, c := range st.ShardRecords {
			most, total = max(most, c), total+c
		}
		pr.l.worst("distsort.shard_imbalance", float64(most)*float64(len(st.ShardRecords))/float64(total))
	}
	return nil
}
