// Package extsort ties run generation and the merge phase into a complete
// external sort, the end-to-end system the paper's Chapter 6 measures. The
// driver is generic over the element type: an Ops bundle supplies the
// comparator, the storage codec and (optionally) a numeric key projection
// for the 2WRS heuristics.
package extsort

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/manifest"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Ops bundles the element-type-specific hooks a sort needs.
type Ops[T any] struct {
	// Less orders elements; required.
	Less func(a, b T) bool
	// Codec stores elements in run files; required.
	Codec codec.Codec[T]
	// Key optionally projects elements onto the real line for the numeric
	// 2WRS heuristics; nil selects comparator-only fallbacks.
	Key func(T) float64
	// KeyCodec optionally produces memcmp-ordered normalized key bytes
	// agreeing with Less (internal/codec). When set and consistent with
	// Less on a sampled prefix of the input, both phases run keyed: run
	// generation caches key prefixes (radix-sorting quick batches) and the
	// merge compares normalized keys instead of calling Less per match. The
	// sorted output is byte-identical either way.
	KeyCodec codec.KeyCodec[T]
	// KeyedExplicit marks KeyCodec as caller-supplied rather than inferred:
	// a sampled order disagreement between KeyCodec and Less then fails the
	// sort instead of silently falling back to the comparator (Ops.keyed).
	KeyedExplicit bool
	// Scratch, when set, recycles the generators' batch-sort memory and the
	// merge's leaves across the sorts these Ops run: a Sorter passes its own
	// (codec.Scratch).
	Scratch *codec.Scratch[T]
}

func (o Ops[T]) validate() error {
	if o.Less == nil {
		return fmt.Errorf("extsort: Ops.Less must be set")
	}
	if o.Codec == nil {
		return fmt.Errorf("extsort: Ops.Codec must be set")
	}
	return nil
}

// ElementBytes estimates the stored size of one element, which converts
// the record-denominated memory budget into bytes: the codec's fixed size,
// or 32 for a variable-width codec.
func (o Ops[T]) ElementBytes() int {
	if f := o.Codec.FixedSize(); f > 0 {
		return f
	}
	return 32
}

// RecordOps returns the Ops for the paper's fixed 16-byte Record streams,
// the ones New infers for Sorter[Record] and the experiments use directly.
// record.Less is the natural int64 order on Key, so Record sorts run keyed
// on the inferred key codec.
func RecordOps() Ops[record.Record] {
	return Ops[record.Record]{Less: record.Less, Codec: codec.Record16{}, Key: record.Key, KeyCodec: codec.KeyRecord16{}}
}

// keySampleLen is how many leading elements the keyed path inspects before
// trusting a KeyCodec: every ordered pair of the sample is checked both
// ways against the comparator, which catches the realistic failure (a
// comparator that is not the codec's natural order, e.g. descending)
// within the first few distinct values.
const keySampleLen = 64

// keyed decides whether a sort whose input starts with sample runs keyed. It
// checks the codec's byte order against the comparator on every pair of
// the first keySampleLen elements and reports keyed (consistent), fails
// the sort (explicit codec, inconsistent) or falls back to the comparator
// silently (inferred codec, inconsistent — e.g. a descending comparator
// over the natural int64 codec). Without a KeyCodec nothing runs keyed. A
// codec of either kind that disagrees only past the sample fails the sort
// with errKeyOrder instead of misordering it.
func (o Ops[T]) keyed(sample []T) (bool, error) {
	if o.KeyCodec == nil {
		return false, nil
	}
	if len(sample) > keySampleLen {
		sample = sample[:keySampleLen]
	}
	if !codec.KeyOrderConsistent(o.KeyCodec, o.Less, sample) {
		if o.KeyedExplicit {
			return false, fmt.Errorf("extsort: KeyCodec disagrees with Less on sampled input: normalized key order must match the comparator")
		}
		return false, nil
	}
	return true, nil
}

// ErrRecordCount fails a sort whose runs do not hold exactly the records run
// generation read: a generator dropped or repeated one. Every later count
// agrees with the runs, so the end of generation is the one place it shows.
var ErrRecordCount = errors.New("extsort: the runs do not hold the records run generation read")

// errKeyOrder explains a misordered sort that ran keyed: the key codec,
// inferred or supplied, passed the sampled check but orders later elements
// differently from the comparator.
var errKeyOrder = errors.New("the key codec disagrees with the comparator past the sampled prefix of the input; sort with WithoutKeys")

// errAdoptedOrder explains a misordered sort that holds runs a durable Resume
// adopted: checked once against the manifest, they are read unchecked after.
var errAdoptedOrder = errors.New("a spill file the resume adopted may be corrupted: adopted runs are read without block checks")

// explainOrder names the causes of an order failure — a run writer's, in
// generation or an intermediate merge, or the final merge's: a keyed sort's
// key codec (errKeyOrder) and adopted runs' corruption (errAdoptedOrder). It
// returns every other error as it is. abandon, where every failure ends,
// applies it.
func (r *RunSet[T]) explainOrder(err error) error {
	if !errors.Is(err, runio.ErrOutOfOrder) || errors.Is(err, errKeyOrder) || errors.Is(err, errAdoptedOrder) {
		return err
	}
	if r.em.KeyCodec != nil {
		err = fmt.Errorf("%w: %w", err, errKeyOrder)
	}
	if r.stats.RunsRecovered > 0 {
		err = fmt.Errorf("%w; %w", err, errAdoptedOrder)
	}
	return err
}

// applyKeyCodec samples the head of src, arms the emitter when the sort
// runs keyed (Ops.keyed) and returns a reader that re-serves the sample.
func applyKeyCodec[T any](src stream.BatchReader[T], em *runio.Emitter[T], ops Ops[T]) (stream.BatchReader[T], bool, error) {
	if ops.KeyCodec == nil {
		return src, false, nil
	}
	sample, _, err := stream.ReadPrefix(src, make([]T, 0, keySampleLen), keySampleLen, nil)
	if err != nil {
		return nil, false, err
	}
	keyed, err := ops.keyed(sample)
	if err != nil {
		return nil, false, err
	}
	if keyed {
		em.KeyCodec = ops.KeyCodec
	}
	return stream.Prepend(sample, src), keyed, nil
}

// Config parameterises a complete external sort.
type Config struct {
	// Policy selects the run generator (internal/policy): one of the fixed
	// ones (2wrs, rs, alternating, quick) or auto, which probes a
	// memory-sized input prefix and runs the fixed generator it names over
	// the whole input. The zero value is 2wrs, the paper's algorithm.
	Policy policy.Kind
	// Memory is the memory budget in records, used by both phases: the run
	// generation data structures, and (converted to bytes) the merge
	// buffers.
	Memory int
	// FanIn is the merge fan-in; zero lets each merge derive it from the
	// budget and its runs (merge.Config.FanIn; MergeFanIn is the base).
	FanIn int
	// TWRS carries the 2WRS-specific knobs; its Memory field is ignored in
	// favour of Config.Memory. Zero value means the recommended §5.3
	// configuration.
	TWRS core.Config
	// Prefix names the temporary files of this sort (default "sort").
	Prefix string
	// Disk, when set, charges every spill access to the analytical disk of
	// internal/iosim, which sits above the spill arena and sees the logical
	// files at their logical offsets. Its clock (Disk.Elapsed) is the
	// caller's to read: after GenerateRuns for run generation, after Merge
	// for the whole sort.
	Disk *iosim.Disk
	// Parallelism bounds the sort's concurrency (default GOMAXPROCS): up to
	// this many of the sort's run generators (its Lanes, set by Memory
	// alone) compute at once, each writing its own files, and up to this
	// many operations of the merge plan execute at once. 1 reproduces the
	// fully sequential behaviour — and, with one lane, the paper's
	// sequential cost model — exactly; the run files, the merge tree and the
	// sorted output are identical at every setting.
	// A simulated disk (Disk != nil) always forces 1: overlap against a
	// single simulated device would double-count time.
	Parallelism int
	// Cancel, when set, is polled between batches in the merge phase; a
	// non-nil return aborts the sort with that error. (Run generation is
	// cancelled through the source: the public API wraps src in a reader
	// whose batch boundaries check the context.) It must be safe for
	// concurrent use: parallel intermediate merges poll it from their own
	// goroutines.
	Cancel func() error
	// Manifest makes run generation durable: a CRC-guarded manifest file
	// ("<Prefix>.manifest", written directly on fs beside the spill files)
	// records each run boundary as it completes, so a crashed or killed
	// sort can resume from the last boundary instead of restarting (see
	// internal/manifest and DESIGN.md §14). The files are the plain sort's,
	// byte for byte: the generator is not disturbed, and a boundary only
	// appends the run's shape and content checksums to the manifest. A
	// resume replays fresh generators — one per lane — from the first input
	// record, checks every recovered run against its record and writes each
	// lane from its last recovered boundary on. That holds under every policy: auto's probe reads the same
	// prefix, so a resumed auto sort repeats the one decision of the
	// uninterrupted one. A failure before the merged stream opens keeps the
	// spill files and manifest for Resume.
	Manifest bool
	// Resume makes GenerateRuns first attempt to resume from the manifest
	// a previous Manifest-mode pass left behind, falling back to a fresh
	// manifest-writing pass when none exists. The input source must serve
	// the same records from the start; the resume replays generation over
	// them and refuses an input that regenerates a different run. Implies
	// Manifest.
	Resume bool
	// Storage is the spill backend's configuration, of which there is none:
	// every sort stores the raw layout, checked block by block.
	Storage storage.Config
	// Pool, when set, is the block pool the sort's spill path draws from
	// and returns to: a Sorter passes its own, so its sorts reuse one set of
	// blocks. Nil gives the sort a pool of its own.
	Pool *storage.Pool
	// Trace, when non-nil, records spans for the sort's phases, runs,
	// merge operations and spill files; export them with the tracer's
	// WriteChromeTrace/WriteSpansJSONL. Nil disables tracing at zero cost.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives counters and histograms under the
	// extsort_* names (internal/obs names.go), read off Stats when a phase
	// ends (publish): they advance at the end of generation and when the
	// merge stream closes, and a finished sort's equal its Stats. Nil
	// disables metrics at zero cost.
	Metrics *obs.Registry
	// Progress, when non-nil, emits periodic progress lines (phase,
	// records/sec, ETA) to its writer for the duration of the sort.
	Progress *obs.Progress
}

// DefaultFanIn is the paper's merge fan-in (merge.DefaultFanIn): with
// core.Recommended's §5.3 parameters, the paper's recommended configuration,
// which Recommended and every simulated sort merge at.
const DefaultFanIn = merge.DefaultFanIn

// MergeFanIn returns the base fan-in of a sort under c whose elements are
// stored in elementBytes each: c.FanIn when set, which no merge widens, and
// otherwise merge.BaseFanIn of the budget in bytes, the width a zero FanIn
// merges at when the runs are too many for one pass. It does not read
// Parallelism.
func (c Config) MergeFanIn(elementBytes int) int {
	if c.FanIn != 0 {
		return c.FanIn
	}
	return merge.BaseFanIn(c.Memory * elementBytes)
}

// Recommended returns the paper's recommended end-to-end configuration:
// 2WRS (§5.3 parameters) with the optimal fan-in.
func Recommended(memory int) Config {
	return Config{
		Policy: policy.TwoWayRS,
		Memory: memory,
		FanIn:  DefaultFanIn,
		TWRS:   core.Recommended(memory),
	}
}

// Resolved returns c with every unset field but FanIn replaced by its
// default. It is the one place those defaults are written — the driver
// applies it to every sort, and the public API's in-memory selection calls
// it for its parallelism instead of repeating the rule. A zero FanIn stays
// zero: the merge resolves it against the runs it merges. Resolving twice
// changes nothing.
func (c Config) Resolved() Config {
	if c.Prefix == "" {
		c.Prefix = "sort"
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Disk != nil {
		// A simulated disk models the paper's single sequential device;
		// overlapping phases against it would double-count time, so a
		// simulated sort is always sequential regardless of Parallelism.
		c.Parallelism = 1
	}
	c.TWRS = c.TWRS.For(c.Memory)
	return c
}

// Stats reports everything the experiments measure about one sort but its
// simulated I/O time, which the caller reads off Config.Disk.
type Stats struct {
	// Records is the number of records sorted.
	Records int64
	// Runs is the number of runs generated.
	Runs int
	// AvgRunLength is Records/Runs.
	AvgRunLength float64
	// Policy names the run-generation policy that ran ("2wrs", "rs",
	// "alternating", "quick", "auto").
	Policy string
	// Generator names the fixed policy whose generator wrote the runs:
	// Policy itself, or the one auto chose.
	Generator string
	// Lanes is how many run generators ran side by side (Config.Lanes): 1
	// unless the budget exceeds 2^15 elements.
	Lanes int
	// LaneMemory is each lane's budget in elements, Memory / Lanes: the
	// memory of the generator that wrote a run (RunLenOverLaneMemory).
	LaneMemory int
	// RunsRecovered is the number of runs a resumed sort recovered intact
	// from a durable manifest instead of regenerating (0 for fresh sorts).
	RunsRecovered int
	// ShardRecords is always nil: there is no sharded sort.
	//
	// Deprecated: nothing sets it.
	ShardRecords []int64
	// Keyed reports whether the sort ran on normalized keys (Ops.KeyCodec
	// accepted by the sampled order check); false means every comparison
	// went through the comparator.
	Keyed bool
	// OverlapRuns counts 2WRS runs whose stream ranges overlapped, so that
	// their streams merge separately: such a run is still one input of the
	// merge plan, and opens as one leaf per stream of the merge that reads it.
	OverlapRuns int64
	// MergeInputs is the number of runs the merge phase started from.
	MergeInputs int
	// MergePasses is the depth of the merge tree (merge.Stats.Passes).
	MergePasses int
	// MergeOps is the number of k-way merge operations (merge.Stats.Merges).
	MergeOps int
	// Storage names the spill backend that ran ("raw"); IO is its
	// byte-level accounting — bytes moved, block counts and checksum
	// verification failures. IO covers both phases once Merge returns.
	Storage string
	// IO is the spill backend's I/O accounting snapshot.
	IO IOStats
	// Elapsed is the end-to-end wall time of the entry point that produced
	// these stats, including setup outside the phase loops — so it is
	// always at least the sum of Phases.
	Elapsed time.Duration
	// Phases breaks Elapsed into named per-phase wall durations in
	// execution order (e.g. "generate" then "merge"): the one statement of
	// each phase's wall time.
	Phases []PhaseStat
}

// RunLenOverLaneMemory is the average run length as a multiple of one lane's
// memory: the paper's run-length measure (2.0 for replacement selection on
// uniform input) for the generators that wrote the runs. Over the whole
// budget the multiple is about Lanes times smaller, since L lanes write
// about L times the runs. It is 0 before any run.
func (s Stats) RunLenOverLaneMemory() float64 {
	if s.LaneMemory == 0 {
		return 0
	}
	return s.AvgRunLength / float64(s.LaneMemory)
}

// IOStats is the spill backend's I/O accounting, re-exported from
// internal/storage so Stats can carry it.
type IOStats = storage.IOStats

// RunSet is the boundary between the sort's two phases: the sorted runs one
// generation pass produced, plus everything needed to merge them — the file
// system, the emitter (codec, comparator, layout sizes) and the frozen
// configuration. Sort is GenerateRuns followed by RunSet.Merge; the operator
// layer instead calls RunSet.OpenMerged to pull the globally sorted order as
// a stream, filtering or abandoning it without materialising an output file.
//
// A RunSet owns its run files until exactly one of Merge, OpenMerged (whose
// Stream then owns them), Discard or, on failure, abandon is called.
type RunSet[T any] struct {
	store storage.Backend
	em    *runio.Emitter[T]
	runs  []runio.Run
	cfg   Config
	ops   Ops[T]
	stats Stats    // run-generation half; OpenMerged adds the plan, Merge the phase
	o     *sortObs // nil when observability is off
	// mergeWall is the merge phase's wall, from OpenMerged to the stream's
	// Close: the one clock of the phase.
	mergeWall time.Duration

	// fs is the base file system; a durable sort's manifest lives on it
	// under manifestName, which is empty for non-durable sorts.
	fs           vfs.FS
	manifestName string
	// spill is the arena on fs holding every spill file.
	spill *vfs.Arena
}

// arenaSuffix is appended to a sort's file prefix to name its spill arena.
const arenaSuffix = ".arena"

// GenerateRuns is GenerateRunsBatch over a caller's source, which crosses
// into the batch protocol here (stream.AsBatchReader) and nowhere below.
func GenerateRuns[T any](src stream.Reader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	return GenerateRunsBatch(stream.AsBatchReader(src), fs, cfg, ops)
}

// GenerateRunsBatch runs phase one only: it consumes src and writes sorted
// runs to temporary files on fs, returning the RunSet to merge, stream or
// discard. Configuration defaulting and validation match Sort exactly. It is
// the door the library's own batch sources come through — the public API's
// context-checked reader.
func GenerateRunsBatch[T any](src stream.BatchReader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	if cfg.Resume {
		rset, err := Resume(src, fs, cfg, ops)
		if err == nil || !(errors.Is(err, manifest.ErrNoManifest) || errors.Is(err, manifest.ErrNoHeader)) {
			return rset, err
		}
		// Nothing to resume from yet — no manifest, or one truncated by a
		// crash before its header record became durable, which carries zero
		// adoptable state: run a fresh manifest-writing pass.
		cfg.Resume, cfg.Manifest = false, true
	}
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	return rset.generate(src, nil, entry)
}

// spillView is the file system the spill backend sees, given the one its
// files live in: the identity. It is the one seam where spill files are
// observed by name: tests replace it to count and break them, and trace
// spans wrap what it returns.
var spillView = func(fs vfs.FS) vfs.FS { return fs }

// newRunSet validates the configuration and builds the RunSet shell —
// storage, observability, emitter — every entry point starts from:
// GenerateRuns and Resume, so both lay spill files out identically.
func newRunSet[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	cfg = cfg.Resolved()
	if err := ops.validate(); err != nil {
		return nil, err
	}
	if cfg.Memory <= 0 {
		return nil, fmt.Errorf("extsort: memory must be positive, got %d", cfg.Memory)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	// The byte form of the memory budget: what the spill path's block pool
	// keeps between files, what run generation sizes its blocks from and
	// what the merge divides among its buffers.
	budget := cfg.Memory * ops.ElementBytes()
	// Run generation's streams hand storage blocks of BlockBytes of one
	// lane's share of the budget. Spill files live in one arena file, in
	// extents of that block, so a forward block is one write into one
	// extent, the file system sees one create and one unlink per sort, and
	// a consumed run's pages are overwritten by the next writer.
	block := runio.BlockBytes(budget / cfg.Lanes())
	arena := vfs.NewArena(fs, cfg.Prefix+arenaSuffix, block)
	var (
		spill vfs.FS = arena
		pages        = runio.BackwardPages(cfg.Memory, ops.ElementBytes())
	)
	if cfg.Disk != nil {
		// The disk model sits above the arena, so it charges the logical
		// files at their logical offsets, each in a region of its own.
		// Simulated runs keep the thesis' k=1000-page chain layout: it is
		// part of what Chapter 6 measures. With right-sized files under the
		// model the 2WRS totals of Figs 6.4/6.5/6.7 move by 2.8-5x (reverse
		// input, 400k records: 292 ms -> 1.457 s simulated) and
		// internal/exp's TestTimeSweepsShapes fails, so this fork stays.
		spill, pages = iosim.NewFS(arena, cfg.Disk), 0
	}
	pool := cfg.Pool
	if pool == nil {
		pool = &storage.Pool{}
	}
	store := storage.NewPooled(traceFiles(spillView(spill), cfg.Trace), pool)
	o := newSortObs(cfg)
	em := runio.NewEmitterOn(store, cfg.Prefix, ops.Codec, ops.Less)
	em.PagesPerFile, em.Block, em.Scratch = pages, block, ops.Scratch
	pool.Reserve(budget)
	rset := &RunSet[T]{store: store, em: em, cfg: cfg, ops: ops, o: o, fs: fs, spill: arena}
	if cfg.Manifest {
		rset.manifestName = manifest.Name(cfg.Prefix)
	}
	rset.stats.Storage = store.String()
	return rset, nil
}

// generate runs phase one on a RunSet shell. Plain, durable and resumed
// passes share it: the sort's generators — one per lane — run straight
// through the input from its first record either way, and a durable sort
// (Config.Manifest) only adds a hook at every run boundary that appends a
// manifest record, then commits the manifest at the end. recovered are the
// boundaries Resume adopted: each lane replays its own first, regenerating
// their runs into a store that keeps nothing and checking each against its
// record, and switches to the sort's store at the last of them. On error
// the pass leaves by abandon.
func (r *RunSet[T]) generate(src stream.BatchReader[T], recovered []manifest.Run, entry time.Time) (*RunSet[T], error) {
	cfg, ops, em, o := r.cfg, r.ops, r.em, r.o
	durable := r.manifestName != ""
	em.Checksums = durable

	// Arm the keyed hot path if a key codec is available and survives the
	// sampled order check against the comparator.
	src, keyed, err := applyKeyCodec(src, em, ops)
	if err != nil {
		return nil, r.abandon(err)
	}
	r.stats.Keyed = keyed

	var man *manifest.Writer
	if durable {
		// Rewriting to the recovered prefix drops boundaries past it and a
		// torn tail; with nothing recovered it is a fresh manifest.
		man, err = manifest.Rewrite(r.fs, r.manifestName, durableHeader(cfg, ops, em, keyed), recovered)
		if err != nil {
			return nil, r.abandon(err)
		}
	}

	gsp := o.tracer().Start("generate",
		obs.Str("policy", cfg.Policy.String()), obs.Bool("keyed", keyed), obs.Bool("durable", durable))
	var rsp *obs.Span // the replay of a resumed pass, while it lasts
	fail := func(err error) (*RunSet[T], error) {
		if man != nil {
			man.Close()
		}
		err = r.abandon(err)
		rsp.End(obs.Str("error", err.Error()))
		gsp.End(obs.Str("error", err.Error()))
		return nil, err
	}

	lanes, err := r.newLanes(recovered)
	if err != nil {
		return fail(err)
	}
	// The meter counts every record the lanes are dealt: a single lane's
	// input position. The replayed prefix is not input of this pass.
	var replayed int64
	if n := len(recovered); n > 0 {
		replayed = replayedInput(lanes)
		rsp = gsp.Start("resume", obs.Int("runs_recovered", int64(n)), obs.Int("input_pos", replayed))
		r.stats.RunsRecovered = n
	}
	in := meterSource(o, src)
	var seq *sequencer
	if durable {
		seq = newSequencer(lanes, func(mr manifest.Run) error { return r.commitBoundary(man, gsp, mr) })
	}

	// Every policy takes the same steps: decide once, build a generator per
	// lane, then drive each to exhaustion.
	wallStart := time.Now()
	runs, err := r.runLanes(lanes, in, seq, gsp, rsp)
	for _, l := range lanes {
		if err == nil && l.replayed < len(l.recovered) {
			err = fmt.Errorf("%w: the input ended after %d records, before the %d runs the manifest committed were regenerated; the source must re-serve the original input", manifest.ErrChecksum, in.N, len(recovered))
		}
	}
	var records int64
	for _, run := range runs {
		records += run.Records
	}
	if err == nil && records != in.N {
		err = fmt.Errorf("%w: %d read, %d in the runs", ErrRecordCount, in.N, records)
	}
	if err != nil {
		return fail(err)
	}
	r.runs = runs
	if durable {
		if err := man.Commit(records); err != nil {
			return fail(err)
		}
		if err := man.Close(); err != nil {
			return fail(err)
		}
		// The committed manifest names every run until the merge is done with
		// it: their extents are not reused before.
		r.spill.Hold()
		em.Checksums = false // the merge phase does not update the manifest
	}

	r.stats.Policy = cfg.Policy.String()
	r.finishGenerate("generate", time.Since(wallStart), entry, in.N-replayed)
	gsp.End(obs.Int("runs", int64(r.stats.Runs)), obs.Int("records", r.stats.Records))
	return r, nil
}

// finishGenerate fills in the statistics every way of arriving at a run set
// shares — a generation pass, or the adoption of a committed manifest — and
// publishes them. The runs hold every record consumed, of which the pass
// read in from its input.
func (r *RunSet[T]) finishGenerate(phase string, wall time.Duration, entry time.Time, in int64) {
	for _, run := range r.runs {
		r.stats.Records += run.Records
		if !run.Concatenable {
			r.stats.OverlapRuns++
		}
	}
	r.stats.Runs = len(r.runs)
	r.stats.Lanes = r.cfg.Lanes()
	r.stats.LaneMemory = r.cfg.Memory / r.stats.Lanes
	if r.stats.Runs > 0 {
		r.stats.AvgRunLength = float64(r.stats.Records) / float64(r.stats.Runs)
	}
	r.stats.IO = r.store.Stats()
	r.stats.Elapsed = time.Since(entry)
	r.stats.Phases = []PhaseStat{{Name: phase, Wall: wall}}
	publish(r.cfg.Metrics, in, Stats{}, r.stats, r.runs, nil)
}

// Runs returns the run manifests of the set; callers must not mutate them.
func (r *RunSet[T]) Runs() []runio.Run { return r.runs }

// Stats returns the statistics accumulated so far: the run-generation half
// after GenerateRuns, the merge plan's counts from OpenMerged on, the merge
// phase after Merge. The IO accounting is a live snapshot of the spill
// backend, so a caller draining OpenMerged sees the final merge's reads
// accumulate.
func (r *RunSet[T]) Stats() Stats {
	st := r.stats
	st.IO = r.store.Stats()
	return st
}

// Store exposes the spill backend of this sort, for callers that inspect
// its accounting directly (tests, benchmarks).
func (r *RunSet[T]) Store() storage.Backend { return r.store }

// OpenMerged runs the intermediate merge passes and returns the final merge
// as a pull stream in globally sorted order. The returned Stream owns the
// remaining run files — and the manifest of a durable sort — and must be
// Closed, fully drained or not. From then on the RunSet's Stats carry the
// plan's MergeInputs, MergePasses and MergeOps; the phases stay
// generation's. The simulated disk (Config.Disk) charges the final merge's
// reads as the caller drains the stream. A failure has left by abandon.
//
// The merge phase ends when the stream closes: its wall (mergeWall), the
// "merge" span, the published metrics and the progress reporter all end
// there. Close is where the run files are consumed — drained (Merge) or
// abandoned early (a TopK or Select that has what it came for) — so that is
// where a durable sort's manifest goes too: it no longer describes anything
// recoverable, and left behind it would only make a later Resume
// re-validate, fail and regenerate from scratch. A merge that fails before
// its stream exists leaves by abandon, which keeps the manifest, with
// whatever runs survive, for Resume.
func (r *RunSet[T]) OpenMerged() (*merge.Stream[T], error) {
	start := time.Now()
	sp := r.o.tracer().Start("merge", obs.Int("inputs", int64(len(r.runs))))
	r.o.reporter().SetPhase("merge", r.stats.Records)
	var st *merge.Stream[T] // OnClose reads it: the stream has been returned by then
	// Every run — concatenable or not — is one merge input: one with
	// overlapping streams opens as several leaves of the operation reading it.
	st, err := merge.NewStream(r.em, r.runs, merge.Config{
		FanIn:       r.cfg.FanIn,
		MemoryBytes: r.cfg.Memory * r.ops.ElementBytes(),
		Workers:     r.cfg.Parallelism,
		Cancel:      r.cfg.Cancel,
		Span:        sp,
		Progress:    r.o.reporter(),
		OnClose: func(failed bool) {
			r.mergeWall = time.Since(start)
			if r.manifestName != "" && !failed {
				r.fs.Remove(r.manifestName) // best-effort: a stale manifest only fails a later Resume's validation
				r.spill.Release()
				r.manifestName = ""
			}
			sp.End()
			if r.cfg.Metrics != nil {
				now, ms := r.Stats(), st.Stats()
				now.Phases = append(slices.Clip(now.Phases), PhaseStat{Name: "merge", Wall: r.mergeWall})
				publish(r.cfg.Metrics, 0, r.stats, now, nil, &ms)
			}
			r.o.reporter().Stop()
		},
	})
	if err != nil {
		sp.End()
		return nil, r.abandon(err)
	}
	ms := st.Stats()
	r.stats.MergeInputs, r.stats.MergePasses, r.stats.MergeOps = ms.Inputs, ms.Passes, ms.Merges
	return st, nil
}

// Merge completes the sort: it opens the merged stream, copies it into dst
// through a batch borrowed from the scratch and closes it, and returns the
// full two-phase statistics.
func (r *RunSet[T]) Merge(dst stream.Writer[T]) (Stats, error) {
	st, err := r.OpenMerged()
	if err != nil {
		return r.Stats(), err
	}
	batch := r.ops.Scratch.Buffer(stream.DefaultBatchLen)
	_, err = stream.CopyBuffer(stream.AsBatchWriter(dst), st, batch[:stream.DefaultBatchLen], r.cfg.Cancel)
	r.ops.Scratch.Put(batch)
	err = r.CloseMerged(st, err)
	r.stats.IO = r.store.Stats()
	if err != nil {
		return r.stats, err
	}
	r.stats.Elapsed += r.mergeWall
	r.stats.Phases = append(r.stats.Phases, PhaseStat{Name: "merge", Wall: r.mergeWall})
	return r.stats, nil
}

// CloseMerged closes the stream OpenMerged returned once its consumer is
// done with it, err being how the consumer ended. After a success the stream
// deletes the runs, and with them a durable manifest. After a failure it
// keeps them, and the set leaves by abandon: a durable sort keeps what
// Resume adopts, a plain one nothing.
func (r *RunSet[T]) CloseMerged(st *merge.Stream[T], err error) error {
	if err != nil {
		st.Fail()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return r.abandon(err)
	}
	return nil
}

// abandon is the one way out of a failed sort's run set, and decides what
// the failure leaves on disk: exactly what Resume needs — a durable sort's
// manifest and arena, closed, and nothing of a plain sort's (Discard). It
// stops the progress reporter, closes the run writers a failed pass left
// open and returns err explained (explainOrder). Every failure of a run
// set ends here.
func (r *RunSet[T]) abandon(err error) error {
	r.o.reporter().Stop()
	r.em.AbortOpen()
	if r.manifestName == "" {
		r.Discard()
	}
	r.spill.Close()
	return r.explainOrder(err)
}

// Discard deletes every spill file of this sort without merging: the
// manifest of a durable sort first — Discard gives the sort up, resumable
// state included — then every file the arena holds, removed through the
// spill backend: the runs, and whatever a failed pass left behind (a
// half-written run from an aborted generation, intermediate outputs of a
// failed reduce). Every removal but the last is bookkeeping, and the last
// unlinks the arena. A second Discard of the same set is a no-op. A failed
// sort does not call it: abandon decides what a failure leaves.
func (r *RunSet[T]) Discard() error {
	r.o.reporter().Stop()
	var first error
	if r.manifestName != "" {
		if err := r.fs.Remove(r.manifestName); err != nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
		r.manifestName = ""
	}
	r.runs = nil
	names, _ := r.spill.Names() // an arena lists its files without I/O and cannot fail
	for _, name := range names {
		if err := r.store.Remove(name); err != nil && first == nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
	}
	return first
}

// Sort reads all elements from src, sorts them externally using temporary
// files on fs, and writes the sorted stream to dst. Ordering, storage and
// heuristics come from ops. It is GenerateRuns followed by RunSet.Merge; a
// failure in either leaves only a durable sort's resumable state behind.
func Sort[T any](src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops Ops[T]) (Stats, error) {
	rset, err := GenerateRuns(src, fs, cfg, ops)
	if err != nil {
		return Stats{}, err
	}
	return rset.Merge(dst)
}
