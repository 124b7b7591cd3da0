// Package repro is a production-quality Go implementation of Two-way
// Replacement Selection (2WRS), the external-sorting run-generation
// algorithm of Martínez Palau, Domínguez-Sal and Larriba-Pey (VLDB 2010),
// together with every substrate the paper builds on: classic replacement
// selection and Load-Sort-Store baselines, a loser-tree k-way merge phase
// with configurable fan-in, the Appendix A backward file format for
// decreasing streams, the paper's six benchmark datasets, the snowplow
// differential-equation model of RS, and the factorial-ANOVA machinery used
// for the paper's statistical analysis.
//
// # The generic API
//
// The primary entry point is the generic Sorter, which externally sorts
// streams of any element type under a configurable memory budget. A Sorter
// is built from a comparator plus functional options and driven with a
// context:
//
//	s, err := repro.New(func(a, b string) bool { return a < b },
//	    repro.WithMemoryRecords(1<<16),
//	    repro.WithTempDir("/tmp/sort"))
//	stats, err := s.Sort(ctx, src, dst) // src yields strings, dst receives them sorted
//
// Elements spill to disk through a pluggable Codec: fixed-width codecs
// reproduce the paper's record layout, and the built-in length-prefixed
// variable-width codecs handle strings and byte slices of any length.
// Codecs for common element types are inferred automatically; custom types
// supply WithCodec (and optionally WithKey, which unlocks the paper's
// numeric heuristics). Cancellation is honoured between batches in both
// the run-generation and merge phases.
//
// # Run-generation policies
//
// Run generation itself is pluggable, and the policy name is the one way
// to pick a generator (WithPolicy, Config.Policy): the paper's 2WRS,
// classic replacement selection, alternating up/down runs and quicksort
// batches (the paper's Load-Sort-Store, also spelled "lss") sit behind one
// policy boundary, and New's default "auto" policy probes the order
// statistics of a memory-sized input prefix — inversion ratio, monotone run
// structure — and runs the generator the data favours over the whole
// input, deciding once. Stats.Policy reports the policy that was asked for
// and each "run" span the generator that wrote the run; Policies lists the
// valid names, and Config.Validate rejects unknown
// ones outright. See DESIGN.md §9 for the cost model.
//
// # The operator layer
//
// Beyond producing a sorted stream, a Sorter answers the queries sorted
// runs make cheap, streaming the merged order through relational
// operators instead of materialising it:
//
//	s.Distinct(ctx, src, dst)                    // one element per equivalence class
//	s.GroupBy(ctx, src, sameGroup, reduce, dst)  // grouped aggregation
//	s.TopK(ctx, src, k, dst)                     // k smallest, ascending
//	s.BottomK(ctx, src, k, dst)                  // k largest, ascending
//	repro.MergeJoin(ctx, ls, lsrc, rs, rsrc, cmp, join, dst)
//
// TopK and BottomK with k within the memory budget never sort at all: a
// bounded heap tracks the selection threshold and nothing spills
// (OpStats.Sorted reports which path ran). See DESIGN.md §"Operator
// layer" for the data flow and cost model.
//
// # Selection
//
// Order-statistic queries answer without sorting. Select partitions in
// memory with a dualheap and returns the exact k-th smallest element;
// Quantiles extracts the values at an arbitrary set of quantiles in one
// pass; ApproxSelect runs soft-heap selection whose rank error is bounded
// by a corruption budget eps:
//
//	v, st, err := s.Select(ctx, src, k)              // exact k-th smallest (1-based)
//	vs, st, err := s.Quantiles(ctx, src, []float64{0.5, 0.9, 0.99})
//	v, st, err := s.ApproxSelect(ctx, src, k, 0.01)  // true rank in [k, k+0.01n]
//
// Inputs larger than the memory budget spill through the usual run
// machinery, but the answer is read off the final merge without
// materialising it — a median query reads back about half the spilled
// bytes. SelectStats reports the path taken, dualheap exchanges and, for
// the approximate variant, the rank-error bound. See DESIGN.md
// §"Selection subsystem".
//
// # Spill storage
//
// Runs spill in the paper's raw layout, the one the Chapter 6 disk model
// prices, and every block is checked as it is read back: the backend keeps
// a CRC-32C of each block it wrote, in memory, so corrupted spill data
// fails the merge with a checksum error (errors.Is storage's ErrChecksum)
// instead of producing silently wrong output. Stats.IO accounts for every
// spilled byte, with block counts and verification failures. See DESIGN.md
// §10.
//
// # Timing
//
// Every call reports its wall time the same way: Elapsed, end to end, and
// Phases, the named phases it passed through in execution order ("generate"
// then "merge" for a sort; "read", "generate", "select" for a spilled
// selection), whose sum never exceeds Elapsed — on Stats, OpStats,
// SelectStats and JoinStats alike. There is no second statement of either.
//
// See examples/ for three runnable programs (quickstart, strings, dbsort),
// example_test.go for a runnable example of every operator, selection and
// option, and DESIGN.md for the system map.
package repro

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/manifest"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/storage"
)

// Record is the unit of the paper's experiments: a 64-bit key ordered
// ascending and a 64-bit auxiliary payload carried along unchanged. Its Less
// method, as the method expression Record.Less, is the comparator that sorts
// Records by key.
type Record = record.Record

// Stats reports what a sort did: run counts, average run length, merge
// passes, its wall time (Elapsed, and Phases by name), and the spill
// backend's I/O accounting (Stats.IO, an IOStats).
type Stats = extsort.Stats

// IOStats is the spill backend's byte-level I/O accounting, carried in
// Stats.IO: bytes moved each way (raw and stored, which are equal), block
// counts and checksum verification failures.
type IOStats = extsort.IOStats

// Storage is the type of Config.Storage, which has nothing to configure.
//
// Deprecated: spill storage has one layout; leave Config.Storage unset.
type Storage = storage.Config

// Durable-sort sentinel errors, matched with errors.Is against failures of
// Sorter.Resume (and of durable Sort calls). See Config.Manifest.
var (
	// ErrNoManifest: the spill directory holds no manifest — there is no
	// durable state to resume. Sorter.Resume handles this itself by
	// starting fresh; the sentinel is for callers of the lower layers.
	ErrNoManifest = manifest.ErrNoManifest
	// ErrManifestMismatch: the manifest was written under a different
	// codec, spill layout or generation configuration than the resuming
	// sort's. Resuming would mix incompatible state, so nothing is reused.
	ErrManifestMismatch = manifest.ErrMismatch
	// ErrManifestCorrupt: the manifest's header is unreadable or from an
	// unknown format version. (Damage confined to the tail is not an
	// error: the intact prefix is resumed and the tail regenerated.)
	ErrManifestCorrupt = manifest.ErrCorrupt
	// ErrRunChecksum: a spill file referenced by the manifest is present
	// but its contents do not match the recorded checksum, or the input a
	// resume replays regenerates a run other than the recorded one (the
	// source is not the original input). The sort refuses to resume rather
	// than risk wrong output; resume with the original input, or discard
	// the spill directory and rerun.
	ErrRunChecksum = manifest.ErrChecksum
)

// ErrRecordCount fails a sort whose runs do not hold exactly the elements run
// generation read from the source: a generator dropped or repeated one. Every
// sort checks it when generation ends; no later count could see the loss.
var ErrRecordCount = extsort.ErrRecordCount

// InputHeuristic decides which heap stores a record when both could.
type InputHeuristic = core.InputHeuristic

// Input heuristics (§4.2 of the paper).
const (
	InputRandom    = core.InRandom
	InputAlternate = core.InAlternate
	InputMean      = core.InMean
	InputMedian    = core.InMedian
	InputUseful    = core.InUseful
	InputBalancing = core.InBalancing
)

// OutputHeuristic decides which heap releases the next record.
type OutputHeuristic = core.OutputHeuristic

// Output heuristics (§4.2 of the paper).
const (
	OutputRandom      = core.OutRandom
	OutputAlternate   = core.OutAlternate
	OutputUseful      = core.OutUseful
	OutputBalancing   = core.OutBalancing
	OutputMinDistance = core.OutMinDistance
)

// BufferSetup selects which auxiliary 2WRS buffers exist.
type BufferSetup = core.BufferSetup

// Buffer setups.
const (
	InputBufferOnly  = core.InputBufferOnly
	BothBuffers      = core.BothBuffers
	VictimBufferOnly = core.VictimBufferOnly
)

// Config controls a sort. The zero value is not valid — it has no memory
// budget; start from DefaultConfig or build a Sorter through New with
// options. New reads a zero BufferFraction as the paper's default, and every
// merge resolves a zero FanIn against the runs it merges; Validate itself
// takes the values as they stand.
type Config struct {
	// Policy names the run generator. Valid names are listed by
	// Policies(): "2wrs" (the paper's two-way replacement selection), "rs",
	// "alternating" (also spelled "alt"), "quick" (the paper's
	// Load-Sort-Store, also spelled "lss") and "auto", which probes the
	// order structure of a memory-sized input prefix and runs over the whole
	// input the generator its cost table prices cheapest (Stats.Generator
	// names it). Unknown names are rejected by Validate, never silently
	// defaulted. New and DefaultConfig say "auto"; the empty name of a
	// hand-built config means "2wrs".
	Policy string
	// MemoryRecords is the memory budget in records for both phases.
	MemoryRecords int
	// FanIn is the merge fan-in. Zero, what DefaultConfig sets, merges
	// every run in one pass when the memory budget gives each piece of them
	// a 4 KiB page, and otherwise at the base width: the widest merge the
	// budget feeds at a 16 KiB block per input, never narrower than the
	// paper's optimum of 10. A Sorter's Config reports the base width. A
	// nonzero FanIn is never widened.
	FanIn int
	// Setup selects which auxiliary 2WRS buffers exist. Setup,
	// BufferFraction, Input and Output tune 2WRS and are ignored by the
	// other generators; the defaults are the paper's recommended
	// configuration (§5.3): both buffers, 2%, Mean input, Random output.
	Setup BufferSetup
	// BufferFraction is the fraction of memory dedicated to the auxiliary
	// 2WRS buffers, in (0, 0.5]. Zero means the recommended 2%.
	BufferFraction float64
	// Input is the 2WRS insertion heuristic (§4.2).
	Input InputHeuristic
	// Output is the 2WRS release heuristic (§4.2).
	Output OutputHeuristic
	// Seed drives the randomised heuristics.
	Seed int64
	// TempDir, when non-empty, stores temporary runs in that directory on
	// the real file system; otherwise runs live in process memory (fine up
	// to a few GB and fastest for tests).
	TempDir string
	// Parallelism bounds the sort's concurrency, as WithParallelism does:
	// up to this many run generators compute at once (a budget past 2^15
	// elements runs ⌈budget/2^15⌉ side by side), merge operations run at
	// once and goroutines build selection heaps. 1 is fully sequential (the
	// paper's cost model); 0, the default, uses GOMAXPROCS. The run files,
	// merge tree and sorted output are identical at every setting.
	Parallelism int
	// Shards is ignored. It once split the sort into range-partitioned
	// shards; run generation puts the cores to work through lanes instead
	// (Parallelism). See DESIGN.md §15.
	//
	// Deprecated: leave it unset.
	Shards int
	// Storage has no fields: spill files have one layout, raw and checked
	// block by block.
	//
	// Deprecated: leave it unset.
	Storage Storage
	// Trace, when non-nil, records phase, run, merge and spill spans for
	// every sort run under this configuration;
	// export with Tracer.WriteChromeTrace or Tracer.WriteSpansJSONL. Nil
	// (the default) disables tracing at zero cost. See WithTracer.
	Trace *Tracer
	// Metrics, when non-nil, receives the counters and histograms of every
	// sort run under this configuration, read off its Stats as each phase
	// ends: they advance at the end of run generation and when the merge
	// ends, not per batch. Expose with Metrics.WritePrometheus or
	// Metrics.Handler. Nil (the default) disables metrics at zero cost. See
	// WithMetrics.
	Metrics *Metrics
	// Progress, when non-nil, emits periodic progress lines (phase,
	// records processed, rate, ETA when the input size is known) to
	// Progress.W every Progress.Interval. See WithProgress.
	Progress *ProgressConfig
	// Manifest makes run generation durable: every completed run is
	// recorded in a CRC-guarded manifest file alongside the spill files,
	// so a sort killed mid-generation can be picked up with Sorter.Resume
	// (or the -resume CLI flag) instead of starting over. Durable sorts
	// write exactly the files a plain sort would: a run boundary only
	// records the run's shape and content checksums. Every generator is a
	// deterministic function of its input, so a resume replays it from the
	// first record, checks each regenerated run against the manifest
	// (refusing an input that differs) and writes for real from the last
	// recovered run on; the resumed output is byte-identical to an
	// uninterrupted sort — under every policy, "auto" (whose one decision
	// the replay repeats) included. See DESIGN.md §14.
	Manifest bool
	// Resume makes every sort under this configuration first look for a
	// durable manifest left by an interrupted earlier sort and continue
	// from its last committed run boundary (the source must re-serve the
	// original input from the start). With no manifest present the sort
	// simply runs fresh. Resume implies Manifest. Most callers use
	// Sorter.Resume instead; the config flag exists for the operator layer
	// (Distinct, TopK, …), which has no separate resume entry point.
	Resume bool
}

// DefaultConfig returns the default configuration with the given memory
// budget in records: the "auto" policy, which runs the generator its cost
// table prices cheapest for the input, and the paper's recommended 2WRS
// heuristics (§5.3) for when that generator is 2wrs.
func DefaultConfig(memoryRecords int) Config {
	twrs := core.Recommended(memoryRecords)
	return Config{
		Policy:         "auto",
		MemoryRecords:  memoryRecords,
		Setup:          twrs.Setup,
		BufferFraction: twrs.BufferFrac,
		Input:          twrs.Input,
		Output:         twrs.Output,
	}
}

// Validate reports a descriptive error for configurations that cannot
// sort correctly or would silently misbehave.
func (c Config) Validate() error {
	if _, err := policy.Parse(c.Policy); err != nil {
		return fmt.Errorf("repro: unknown policy %q (valid policies: %s)", c.Policy, strings.Join(Policies(), ", "))
	}
	if c.MemoryRecords < 3 {
		return fmt.Errorf("repro: memory budget of %d records is too small (need ≥ 3)", c.MemoryRecords)
	}
	if c.FanIn < 0 || c.FanIn == 1 {
		return fmt.Errorf("repro: merge fan-in must be 0 (derived) or at least 2, got %d", c.FanIn)
	}
	if c.BufferFraction <= 0 || c.BufferFraction > 0.5 {
		return fmt.Errorf("repro: buffer fraction %v outside (0, 0.5]", c.BufferFraction)
	}
	switch c.Setup {
	case InputBufferOnly, BothBuffers, VictimBufferOnly:
	default:
		return fmt.Errorf("repro: unknown buffer setup %v", c.Setup)
	}
	switch c.Input {
	case InputRandom, InputAlternate, InputMean, InputMedian, InputUseful, InputBalancing, core.InTopOnly:
	default:
		return fmt.Errorf("repro: unknown input heuristic %v", c.Input)
	}
	switch c.Output {
	case OutputRandom, OutputAlternate, OutputUseful, OutputBalancing, OutputMinDistance:
	default:
		return fmt.Errorf("repro: unknown output heuristic %v", c.Output)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("repro: parallelism must be non-negative, got %d", c.Parallelism)
	}
	return nil
}

// Policies lists the valid run-generation policy names accepted by
// Config.Policy and WithPolicy, in presentation order.
func Policies() []string { return policy.Names() }

// toInternal converts the public Config to the internal driver config.
// Validate has vetted the policy name; had it been skipped, the Kind Parse
// returns beside its error is one the driver refuses.
func (c Config) toInternal() extsort.Config {
	kind, _ := policy.Parse(c.Policy)
	return extsort.Config{
		Policy:      kind,
		Memory:      c.MemoryRecords,
		FanIn:       c.FanIn,
		Parallelism: c.Parallelism,
		Trace:       c.Trace,
		Metrics:     c.Metrics,
		Progress:    c.Progress,
		Manifest:    c.Manifest || c.Resume,
		Resume:      c.Resume,
		TWRS: core.Config{
			Memory:     c.MemoryRecords,
			Setup:      c.Setup,
			BufferFrac: c.BufferFraction,
			Input:      c.Input,
			Output:     c.Output,
			Seed:       c.Seed,
		},
	}
}

// DatasetKind identifies one of the paper's six input distributions.
type DatasetKind = gen.Kind

// The six distributions of Figure 5.1 of the thesis.
const (
	DatasetSorted          = gen.Sorted
	DatasetReverseSorted   = gen.ReverseSorted
	DatasetAlternating     = gen.Alternating
	DatasetRandom          = gen.Random
	DatasetMixedBalanced   = gen.MixedBalanced
	DatasetMixedImbalanced = gen.MixedImbalanced
)

// Dataset generates n records of one of the paper's benchmark
// distributions, deterministically for a given seed.
func Dataset(kind DatasetKind, n int, seed int64) []Record {
	return gen.Generate(gen.Config{Kind: kind, N: n, Seed: seed, Noise: 1000})
}

// DatasetReader streams one of the paper's benchmark distributions without
// materialising it, for inputs larger than memory.
func DatasetReader(kind DatasetKind, n int, seed int64) Source[Record] {
	return gen.New(gen.Config{Kind: kind, N: n, Seed: seed, Noise: 1000})
}
