// Package gen produces the six input distributions of Figure 5.1 of the
// thesis: sorted, reverse sorted, alternating, random, mixed balanced and
// mixed imbalanced.
//
// Generators are streaming (stream.Reader[record.Record]) so experiments
// never need the whole input in memory, and deterministic given a seed. As
// in §5.2, a uniformly distributed value in [1, Noise] can be added to every
// key to give replicated ANOVA executions their variance; keys are spread by
// a Step factor first so the noise does not change the macro shape.
package gen

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/record"
)

// Kind identifies one of the paper's input distributions.
type Kind int

// The six distributions of Figure 5.1.
const (
	Sorted Kind = iota
	ReverseSorted
	Alternating
	Random
	MixedBalanced
	MixedImbalanced
)

// Kinds lists every distribution in the order the thesis presents them.
var Kinds = []Kind{Sorted, ReverseSorted, Alternating, Random, MixedBalanced, MixedImbalanced}

var kindNames = map[Kind]string{
	Sorted:          "sorted",
	ReverseSorted:   "reverse",
	Alternating:     "alternating",
	Random:          "random",
	MixedBalanced:   "mixed",
	MixedImbalanced: "imbalanced",
}

// String returns the short name used by CLIs and experiment tables.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a distribution name as accepted by the CLI tools.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if strings.EqualFold(s, n) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("gen: unknown dataset %q (want one of sorted, reverse, alternating, random, mixed, imbalanced)", s)
}

// Config describes a dataset.
type Config struct {
	// Kind is the distribution to generate.
	Kind Kind
	// N is the number of records to generate.
	N int
	// Sections is the number of monotone intervals for the Alternating
	// kind (thesis default: 50, i.e. 25 ascending + 25 descending).
	Sections int
	// Seed seeds the random number generator used by the Random kind and
	// by noise.
	Seed int64
	// Step spreads base keys apart so noise cannot reorder the macro
	// structure. 0 means the thesis default of 1000.
	Step int64
	// Noise, when positive, adds a uniform value in [1, Noise] to every
	// key (thesis: 1000). 0 disables noise.
	Noise int64
}

func (c Config) withDefaults() Config {
	if c.Sections <= 0 {
		c.Sections = 50
	}
	if c.Step == 0 {
		c.Step = 1000
	}
	return c
}

// Generator streams the records of a dataset. It implements
// stream.Reader[record.Record].
type Generator struct {
	cfg Config
	rng *rand.Rand
	i   int
}

// New returns a streaming generator for cfg.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Read implements stream.Reader, returning io.EOF after N records.
func (g *Generator) Read() (record.Record, error) {
	if g.i >= g.cfg.N {
		return record.Record{}, io.EOF
	}
	r := record.Record{Key: g.key(g.i), Aux: uint64(g.i)}
	g.i++
	return r, nil
}

// Remaining reports how many records are left to generate.
func (g *Generator) Remaining() int { return g.cfg.N - g.i }

// key computes the i-th key: a deterministic base shape scaled by Step,
// plus optional noise.
func (g *Generator) key(i int) int64 {
	n := g.cfg.N
	var base int64
	switch g.cfg.Kind {
	case Sorted:
		base = int64(i)
	case ReverseSorted:
		base = int64(n - 1 - i)
	case Alternating:
		// Triangle wave: Sections monotone intervals of length n/Sections,
		// alternating ascending and descending (Fig 5.1(c)).
		l := n / g.cfg.Sections
		if l < 1 {
			l = 1
		}
		pos := i % (2 * l)
		if pos < l {
			base = int64(pos)
		} else {
			base = int64(2*l - pos)
		}
	case Random:
		base = g.rng.Int63n(int64(n))
	case MixedBalanced:
		// One record of an ascending sequence interleaved with one record
		// of a descending sequence (Fig 5.1(e)): the two trends cross.
		if i%2 == 0 {
			base = int64(i / 2)
		} else {
			base = int64(n - i/2)
		}
	case MixedImbalanced:
		// One ascending record per three descending records (Fig 5.1(f)).
		if i%4 == 0 {
			base = int64(i / 4)
		} else {
			dec := i - i/4 - 1
			base = int64(n - dec)
		}
	default:
		panic(fmt.Sprintf("gen: unknown kind %d", int(g.cfg.Kind)))
	}
	key := base * g.cfg.Step
	if g.cfg.Noise > 0 {
		key += 1 + g.rng.Int63n(g.cfg.Noise)
	}
	return key
}

// Generate materialises the whole dataset; convenient for tests and small
// experiments.
func Generate(cfg Config) []record.Record {
	g := New(cfg)
	recs := make([]record.Record, 0, cfg.N)
	for {
		r, err := g.Read()
		if err == io.EOF {
			return recs
		}
		recs = append(recs, r)
	}
}
