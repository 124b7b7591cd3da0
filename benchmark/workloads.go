package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"repro"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
)

// defaultMemory is the budget repro.New picks when no option sets one.
const defaultMemory = 1 << 20

// minMemory keeps scaled-down budgets large enough for every generator
// (2WRS carves input and victim buffers out of the budget).
const minMemory = 64

// dataset is one input of a workload: open returns a fresh deterministic
// generator of n elements. The end-to-end run materialises it in set-up;
// the footprint child streams it so the input never counts against RSS.
type dataset[T any] struct {
	name string
	open func(n int, seed int64) repro.Source[T]
}

// workload is one row of the benchmark: inputs, element hooks and sorter
// configuration. One operation sorts every dataset once, back to back.
type workload[T any] struct {
	name string
	// n is the element count per dataset and memory the sorter budget, both
	// at full scale. memory 0 leaves New's own default in force, which is
	// the point of random_default.
	n, memory int
	datasets  []dataset[T]
	less      func(a, b T) bool
	hash      func(T) uint64
	// ops is what New infers for T; the traced path and the layer probes
	// call the internal packages with it directly.
	ops extsort.Ops[T]
	// opts are the sorter options beyond the memory budget and temp dir.
	opts []repro.Option
	// cores is how many cores must be online for the workload's numbers to
	// count as evidence; 0 means any.
	cores int
}

// newResult opens the workload's result and notes what disqualifies it.
func (w *workload[T]) newResult(p params, traced bool) *result {
	res := newResult(w.name, p, traced)
	if n := runtime.NumCPU(); n < w.cores {
		res.caveat(fmt.Sprintf("needs %d cores online, found %d", w.cores, n))
	}
	return res
}

// scaled returns the per-dataset element count and the memory budget of a
// run. At 1/scale, N and M shrink together so N/M, and with it the run
// count and merge depth, is preserved; -n overrides N alone, which is how
// peak_rss_mb is shown not to depend on the input size.
func (w *workload[T]) scaled(p params) (n, memory int) {
	n, memory = w.n/p.scale, w.memory
	if p.n > 0 {
		n = p.n
	}
	if memory == 0 {
		memory = defaultMemory
	}
	if memory /= p.scale; memory < minMemory {
		memory = minMemory
	}
	return n, memory
}

// newSorter builds the workload's sorter spilling to dir. At full scale a
// workload with memory 0 passes no budget option at all.
func (w *workload[T]) newSorter(dir string, p params) (*repro.Sorter[T], error) {
	opts := append([]repro.Option{repro.WithTempDir(dir)}, w.opts...)
	if w.memory != 0 || p.scale != 1 {
		_, m := w.scaled(p)
		opts = append(opts, repro.WithMemoryRecords(m))
	}
	return repro.New(w.less, opts...)
}

// internalConfig mirrors repro.Config's own conversion to the driver
// configuration, which is not exported: the traced pass calls
// extsort.GenerateRuns and RunSet.Merge itself to put spans between them.
// The traced pass fails if the two paths disagree on the runs generated.
func internalConfig(c repro.Config) (extsort.Config, error) {
	kind, err := policy.Parse(c.Policy)
	if err != nil {
		return extsort.Config{}, err
	}
	return extsort.Config{
		Policy:      kind,
		Memory:      c.MemoryRecords,
		FanIn:       c.FanIn,
		Parallelism: c.Parallelism,
		Storage:     c.Storage,
		Manifest:    c.Manifest,
		TWRS: core.Config{
			Memory:     c.MemoryRecords,
			Setup:      c.Setup,
			BufferFrac: c.BufferFraction,
			Input:      c.Input,
			Output:     c.Output,
			Seed:       c.Seed,
		},
	}, nil
}

func recordDataset(kind gen.Kind) dataset[record.Record] {
	return dataset[record.Record]{
		name: kind.String(),
		open: func(n int, seed int64) repro.Source[record.Record] {
			return gen.New(gen.Config{Kind: kind, N: n, Seed: seed, Noise: 1000})
		},
	}
}

func recordWorkload(name string, n, memory int, kinds []gen.Kind, opts ...repro.Option) *workload[record.Record] {
	w := &workload[record.Record]{
		name: name, n: n, memory: memory,
		less: record.Less, hash: hashRecord,
		ops: extsort.RecordOps(), opts: opts,
	}
	for _, k := range kinds {
		w.datasets = append(w.datasets, recordDataset(k))
	}
	return w
}

// vocab and stringSource reproduce the examples/strings generator: keys
// like "kiwi-mango-000042-xyz…", 12 to 60 bytes long.
var vocab = []string{
	"amber", "birch", "cobalt", "dune", "ember", "fjord", "glacier",
	"harbor", "iris", "juniper", "kiwi", "lagoon", "mango", "nectar",
	"onyx", "pearl", "quartz", "raven", "sable", "tundra",
}

type stringSource struct {
	rng  *rand.Rand
	left int
	buf  []byte
}

func (s *stringSource) Read() (string, error) {
	if s.left == 0 {
		return "", io.EOF
	}
	s.left--
	b := s.buf[:0]
	b = append(b, vocab[s.rng.Intn(len(vocab))]...)
	b = append(b, '-')
	b = append(b, vocab[s.rng.Intn(len(vocab))]...)
	b = append(b, '-')
	for num, div := s.rng.Intn(1_000_000), 100_000; div > 0; div /= 10 {
		b = append(b, byte('0'+num/div%10))
	}
	b = append(b, '-')
	for tail := s.rng.Intn(41); tail > 0; tail-- {
		b = append(b, byte('a'+s.rng.Intn(26)))
	}
	s.buf = b
	return string(b), nil
}

// Remaining lets the set-up pre-size the slice it reads the strings into.
func (s *stringSource) Remaining() int { return s.left }

func stringLess(a, b string) bool { return a < b }

// runner is the element-type-erased face of a workload.
type runner interface {
	endToEnd(p params) (*result, error)
	footprint(p params) error
	trace(p params, spansPath string) (*result, error)
}

// spec names a workload and records why it exists; BENCHMARK.json carries
// the same text.
type spec struct {
	name, why string
	build     func() runner
}

var random = []gen.Kind{gen.Random}

// specs lists the workloads in report order. Sizes are for two shared
// cores: one operation takes roughly 1.2 to 2.5 s. The suite, selfcheck and
// diff cover all six; BENCHMARK.json names spill_merge, paper_structured and
// durable_2wrs for the driver, whose time limit trades workloads against
// run length (README, "Which workloads are gated").
var specs = []spec{
	{
		"random_default",
		"New(less) plus a temp dir and nothing else: auto policy, memory 2^20 (the real default) over uniform random records; generation dominates, the spill path does little",
		func() runner { return recordWorkload("random_default", 2_000_000, 0, random) },
	},
	{
		"spill_merge",
		"quick policy, memory 2^14, fan-in 4, CRC-framed blocks: 245 runs and 4 merge passes, so merge/runio/storage/vfs do the work and the heaps none; bypasses policy work",
		func() runner {
			return recordWorkload("spill_merge", 4_000_000, 1<<14, random,
				repro.WithPolicy("quick"), repro.WithFanIn(4), repro.WithCompression("none"))
		},
	},
	{
		"paper_structured",
		"the paper's reverse, alternating, mixed and imbalanced inputs back to back at memory 2^14: long two-way runs, backward-format writes, auto's probe and switches",
		func() runner {
			return recordWorkload("paper_structured", 1_000_000, 1<<14,
				[]gen.Kind{gen.ReverseSorted, gen.Alternating, gen.MixedBalanced, gen.MixedImbalanced})
		},
	},
	{
		"strings_varwidth",
		"12-60 byte strings at memory 2^14: variable-width codec, offset-value-coded merge, per-element allocation; catches a fixed-width win that costs var-width",
		func() runner {
			return &workload[string]{
				name: "strings_varwidth", n: 400_000, memory: 1 << 14,
				datasets: []dataset[string]{{"strings", func(n int, seed int64) repro.Source[string] {
					return &stringSource{rng: rand.New(rand.NewSource(seed)), left: n}
				}}},
				less: stringLess, hash: hashString,
				ops: extsort.Ops[string]{Less: stringLess, Codec: codec.String{}, KeyCodec: codec.KeyString{}},
			}
		},
	},
	{
		"durable_2wrs",
		"2wrs with a durable manifest at memory 2^16: restart-per-boundary generator, content checksums, manifest appends; must not move when only the plain path changes",
		func() runner {
			return recordWorkload("durable_2wrs", 2_000_000, 1<<16, random,
				repro.WithPolicy("2wrs"), repro.WithManifest())
		},
	},
	{
		"sharded_2",
		"defaults plus two range shards at memory 2^16: splitter sampling, band router and per-record channel hop; not evidence when fewer than 2 cores are online",
		func() runner {
			w := recordWorkload("sharded_2", 4_000_000, 1<<16, random, repro.WithShards(2))
			w.cores = 2
			return w
		},
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
