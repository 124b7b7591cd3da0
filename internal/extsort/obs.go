package extsort

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
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

// sortObs bundles one sort's observability state: the tracer, the
// progress reporter and every registry collector resolved once up front so
// the phases never touch the registry. A nil *sortObs disables everything;
// all methods are nil-safe.
type sortObs struct {
	tr  *obs.Tracer
	rep *obs.Reporter

	recordsIn *obs.Counter
	runs      *obs.Counter
	runLen    *obs.Histogram
	recovered *obs.Counter
	ckptTime  *obs.Histogram
	switches  *obs.Counter
	phaseGen  *obs.Histogram
	phaseMrg  *obs.Histogram

	ioMu   sync.Mutex
	ioLast storage.IOStats
	io     ioMetrics
}

// ioMetrics mirrors storage.IOStats onto registry collectors.
type ioMetrics struct {
	blocksW, blocksR *obs.Counter
	rawW, storedW    *obs.Counter
	rawR, storedR    *obs.Counter
	verify           *obs.Counter
}

// newSortObs builds the bundle for one sort, or returns nil when the
// config enables no observability at all.
func newSortObs(cfg Config) *sortObs {
	if cfg.Trace == nil && cfg.Metrics == nil && cfg.Progress == nil {
		return nil
	}
	o := &sortObs{tr: cfg.Trace}
	o.rep = cfg.Progress.Start(cfg.Prefix)
	m := cfg.Metrics
	o.recordsIn = m.Counter(obs.MRecordsIn, "Records read from the sort input.")
	o.runs = m.Counter(obs.MRuns, "Sorted runs emitted by generation.")
	o.runLen = m.Histogram(obs.MRunLength, "Run length distribution in records.", obs.RunLengthBuckets)
	o.recovered = m.Counter(obs.MRunsRecovered, "Runs recovered from a durable manifest by a resumed sort.")
	o.ckptTime = m.Histogram(obs.MCheckpointSeconds, "Per-boundary checkpoint wall seconds.", obs.PhaseSecondsBuckets)
	o.switches = m.Counter(obs.MPolicySwitches, "Mid-stream generator switches by the auto policy.")
	o.phaseGen = m.Histogram(obs.MPhaseSeconds, "Per-phase wall seconds.", obs.PhaseSecondsBuckets,
		obs.Label{Name: "phase", Value: "generate"})
	o.phaseMrg = m.Histogram(obs.MPhaseSeconds, "Per-phase wall seconds.", obs.PhaseSecondsBuckets,
		obs.Label{Name: "phase", Value: "merge"})
	o.io = ioMetrics{
		blocksW: m.Counter(obs.MSpillBlocksWritten, "Spill blocks written."),
		blocksR: m.Counter(obs.MSpillBlocksRead, "Spill blocks read."),
		rawW:    m.Counter(obs.MSpillRawBytes, "Pre-compression bytes written to spill storage."),
		storedW: m.Counter(obs.MSpillStoredBytes, "On-storage bytes written to spill storage."),
		rawR:    m.Counter(obs.MReadRawBytes, "Post-decompression bytes read back from spill storage."),
		storedR: m.Counter(obs.MReadStoredBytes, "On-storage bytes read back from spill storage."),
		verify:  m.Counter(obs.MSpillVerifyFailures, "Checksum verification failures on spill reads."),
	}
	return o
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
// bytes the backend stores and reads back, frames and compression included,
// so a sort's spans sum to its Stats.IO stored bytes. A nil tracer returns
// fs unchanged.
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

// finishGenerate records the switch counter, the generation phase time
// and an I/O sync after the run-generation loop completes.
func (o *sortObs) finishGenerate(st Stats, wall time.Duration) {
	if o == nil {
		return
	}
	o.switches.Add(int64(st.PolicySwitches))
	o.phaseGen.Observe(wall.Seconds())
	o.syncIO(st.IO)
}

// observeRun records one emitted run.
func (o *sortObs) observeRun(records int64) {
	if o == nil {
		return
	}
	o.runs.Add(1)
	o.runLen.Observe(float64(records))
}

// observeRecovered records runs a resumed sort recovered from a manifest
// instead of regenerating.
func (o *sortObs) observeRecovered(n int) {
	if o == nil || n == 0 {
		return
	}
	o.recovered.Add(int64(n))
}

// observeCheckpoint records the wall time one durable run boundary took.
func (o *sortObs) observeCheckpoint(d time.Duration) {
	if o == nil {
		return
	}
	o.ckptTime.Observe(d.Seconds())
}

// observeMergePhase records the merge phase's wall time.
func (o *sortObs) observeMergePhase(d time.Duration) {
	if o == nil {
		return
	}
	o.phaseMrg.Observe(d.Seconds())
}

// syncIO folds a fresh backend snapshot into the registry: counters
// advance by the delta since the last sync. Synced at generation end and
// once more when the merge stream closes, which keeps the final exposition
// exactly equal to Stats.IO.
func (o *sortObs) syncIO(st storage.IOStats) {
	if o == nil {
		return
	}
	o.ioMu.Lock()
	last := o.ioLast
	o.ioLast = st
	o.ioMu.Unlock()
	o.io.blocksW.Add(st.BlocksWritten - last.BlocksWritten)
	o.io.blocksR.Add(st.BlocksRead - last.BlocksRead)
	o.io.rawW.Add(st.RawBytesWritten - last.RawBytesWritten)
	o.io.storedW.Add(st.StoredBytesWritten - last.StoredBytesWritten)
	o.io.rawR.Add(st.RawBytesRead - last.RawBytesRead)
	o.io.storedR.Add(st.StoredBytesRead - last.StoredBytesRead)
	o.io.verify.Add(st.VerifyFailures - last.VerifyFailures)
}

// meterReader counts the records flowing out of a source — the input
// position a durable boundary records — into the progress reporter, and
// those past the first skip into the input counter, a batch at a time. It
// forwards the source's Remaining hint.
type meterReader[T any] struct {
	br   stream.BatchReader[T]
	c    *obs.Counter
	rep  *obs.Reporter
	n    int64 // records read so far
	skip int64 // the prefix a resumed pass replays: input of an earlier pass
}

func (m *meterReader[T]) ReadBatch(dst []T) (int, error) {
	k, err := m.br.ReadBatch(dst)
	m.n += int64(k)
	m.rep.Add(int64(k))
	if fresh := min(int64(k), m.n-m.skip); fresh > 0 {
		m.c.Add(fresh)
	}
	return k, err
}

// Remaining forwards Sized; -1 when the source does not know.
func (m *meterReader[T]) Remaining() int { return stream.RemainingOf(m.br) }

// meterSource wraps src with a meterReader that skips the first skip
// records, and moves the progress reporter into the "generate" phase, sized
// from the source when known.
func meterSource[T any](o *sortObs, src stream.BatchReader[T], skip int64) *meterReader[T] {
	m := &meterReader[T]{br: src, skip: skip}
	if o != nil {
		o.rep.SetPhase("generate", int64(stream.RemainingOf(src)))
		m.c, m.rep = o.recordsIn, o.rep
	}
	return m
}
