package extsort

import (
	"time"

	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// PhaseStat is one named phase of a sort's elapsed time.
type PhaseStat struct {
	// Name is the phase name: "read", "generate", "merge", "select", ...
	Name string
	// Wall is the phase's wall-clock duration.
	Wall time.Duration
}

// sortObs bundles one sort's tracer, its progress reporter and the
// checkpoint histogram, the one series of the sort's that no field of Stats
// holds. A nil *sortObs disables all three; all methods are nil-safe.
type sortObs struct {
	tr       *obs.Tracer
	rep      *obs.Reporter
	ckptTime *obs.Histogram
}

// newSortObs builds the bundle for one sort, or returns nil when the
// config enables no observability at all.
func newSortObs(cfg Config) *sortObs {
	if cfg.Trace == nil && cfg.Metrics == nil && cfg.Progress == nil {
		return nil
	}
	return &sortObs{
		tr:       cfg.Trace,
		rep:      cfg.Progress.Start(cfg.Prefix),
		ckptTime: cfg.Metrics.Histogram(obs.MCheckpointSeconds, "Per-boundary checkpoint wall seconds.", obs.PhaseSecondsBuckets),
	}
}

// publish adds to m what a sort's ledger gained since was, the ledger as
// last published, so the registry keeps no count of its own: every series
// but the checkpoint histogram and the selection swap counter is read off
// Stats, the runs and the merge statistics behind it. A sort publishes
// where it settles its ledger: at the end of generation, or of a committed
// adoption, with the records it read in from its input (in: a resume's
// replayed prefix and adopted runs were read by an earlier invocation) and
// the runs it holds; and when its merge stream closes, with the stream's
// statistics (ms), whose records delivered are the records out. Series so
// advance at phase ends, and a finished sort's exposition equals its
// ledger. A nil m publishes nothing.
func publish(m *obs.Registry, in int64, was, now Stats, runs []runio.Run, ms *merge.Stats) {
	if m == nil {
		return
	}
	add := func(name, help string, n int64) { m.Counter(name, help).Add(n) }
	add(obs.MRecordsIn, "Records read from the sort input.", in)
	add(obs.MRuns, "Sorted runs emitted by generation.", int64(len(runs)))
	lengths := m.Histogram(obs.MRunLength, "Run length distribution in records.", obs.RunLengthBuckets)
	for _, r := range runs {
		lengths.Observe(float64(r.Records))
	}
	add(obs.MRunsRecovered, "Runs recovered from a durable manifest by a resumed sort.", int64(now.RunsRecovered-was.RunsRecovered))
	for _, ph := range now.Phases[len(was.Phases):] {
		m.Histogram(obs.MPhaseSeconds, "Per-phase wall seconds.", obs.PhaseSecondsBuckets,
			obs.Label{Name: "phase", Value: ph.Name}).Observe(ph.Wall.Seconds())
	}
	add(obs.MSpillBlocksWritten, "Spill blocks written.", now.IO.BlocksWritten-was.IO.BlocksWritten)
	add(obs.MSpillBlocksRead, "Spill blocks read.", now.IO.BlocksRead-was.IO.BlocksRead)
	add(obs.MSpillRawBytes, "Bytes written to spill storage.", now.IO.RawBytesWritten-was.IO.RawBytesWritten)
	add(obs.MReadRawBytes, "Bytes read back from spill storage.", now.IO.RawBytesRead-was.IO.RawBytesRead)
	add(obs.MSpillVerifyFailures, "Checksum verification failures on spill reads.", now.IO.VerifyFailures-was.IO.VerifyFailures)
	if ms != nil {
		add(obs.MMergeOps, "Individual k-way merge operations (intermediate and final).", int64(ms.Merges))
		fanIn := m.Histogram(obs.MMergeFanIn, "Merge operation fan-in distribution.", obs.FanInBuckets)
		for i := range ms.Merges {
			fanIn.Observe(float64(ms.Width(i)))
		}
		add(obs.MMergeRecordsMoved, "Records moved through intermediate merge runs.", ms.RecordsMoved)
		add(obs.MRecordsOut, "Records delivered by the final merge.", ms.Delivered)
	}
}

// tracer returns the bundle's tracer (nil when disabled).
func (o *sortObs) tracer() *obs.Tracer {
	if o == nil {
		return nil
	}
	return o.tr
}

// traceFiles returns fs with one span per file on the "spill" track:
// "spill_write" from Create, "spill_read" from Open, each ended by the
// file's Close with its name and the bytes moved through it. Those are the
// bytes the backend writes and reads back, so a sort's spans sum to its
// Stats.IO.RawBytesWritten and RawBytesRead. A nil tracer returns fs
// unchanged.
func traceFiles(fs vfs.FS, tr *obs.Tracer) vfs.FS {
	if tr == nil {
		return fs
	}
	return &tracedFS{FS: fs, tr: tr}
}

type tracedFS struct {
	vfs.FS
	tr *obs.Tracer
}

func (t *tracedFS) Create(name string) (vfs.File, error) {
	return t.traced(name, "spill_write", t.FS.Create)
}

func (t *tracedFS) Open(name string) (vfs.File, error) {
	return t.traced(name, "spill_read", t.FS.Open)
}

func (t *tracedFS) traced(name, span string, open func(string) (vfs.File, error)) (vfs.File, error) {
	f, err := open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, sp: t.tr.StartOn("spill", span, obs.Str("file", name))}, nil
}

// tracedFile counts the bytes read and written through it into its span.
type tracedFile struct {
	vfs.File
	sp    *obs.Span
	bytes int64
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error)  { return f.add(f.File.ReadAt(p, off)) }
func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) { return f.add(f.File.WriteAt(p, off)) }

func (f *tracedFile) add(n int, err error) (int, error) {
	f.bytes += int64(n)
	return n, err
}

func (f *tracedFile) Close() error {
	err := f.File.Close()
	f.sp.End(obs.Int("bytes", f.bytes))
	return err
}

// reporter returns the bundle's progress reporter (nil when disabled).
func (o *sortObs) reporter() *obs.Reporter {
	if o == nil {
		return nil
	}
	return o.rep
}

// observeCheckpoint records the wall time one durable run boundary took.
func (o *sortObs) observeCheckpoint(d time.Duration) {
	if o == nil {
		return
	}
	o.ckptTime.Observe(d.Seconds())
}

// meterSource meters src — its count is the input position a durable
// boundary records — into the progress reporter's "generate" phase.
func meterSource[T any](o *sortObs, src stream.BatchReader[T]) *stream.Meter[T] {
	o.reporter().SetPhase("generate", int64(stream.RemainingOf(src)))
	return &stream.Meter[T]{R: src, Add: o.reporter().Add}
}
