package repro

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/runio"
)

// sortBothWays sorts the dataset twice — keyed (inferred codec) and with
// WithoutKeys — under the given comparator, policy and options, asserts the
// outputs are element-for-element identical, Aux included, and returns
// them. Byte-identical output at every setting is the keyed path's core
// guarantee; the inferred codec must engage.
func sortBothWays(t *testing.T, less func(a, b record.Record) bool, data []record.Record, policy string, opts ...Option) []record.Record {
	t.Helper()
	cfg := DefaultConfig(1 << 10)
	run := func(more ...Option) ([]record.Record, Stats) {
		all := append([]Option{WithConfig(cfg), WithPolicy(policy)}, opts...)
		s, err := New(less, append(all, more...)...)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}
	keyed, kst := run()
	comp, cst := run(WithoutKeys())
	if !kst.Keyed {
		t.Fatalf("policy %s: inferred record codec did not engage (Stats.Keyed=false)", policy)
	}
	if cst.Keyed {
		t.Fatalf("policy %s: WithoutKeys still reported Stats.Keyed=true", policy)
	}
	if len(keyed) != len(comp) {
		t.Fatalf("policy %s: keyed %d records vs comparator %d", policy, len(keyed), len(comp))
	}
	for i := range comp {
		if keyed[i] != comp[i] {
			t.Fatalf("policy %s: outputs diverge at %d: keyed %+v vs comparator %+v",
				policy, i, keyed[i], comp[i])
		}
	}
	return keyed
}

// refiningRecords is the input that separates a key tie from an element
// tie: the first 64 keys are distinct, so the inferred Key codec passes the
// sampled order check against totalRecLess (Key, then Aux), and the rest
// share 5 keys, so nearly every merge match is a key tie only the
// comparator can order. Aux is the input position, except that every third
// record is one exact value in the middle of its key, so exact ties sit among
// the key's other records. Equal records are identical, so the sorted output
// is unique.
func refiningRecords(n int) []record.Record {
	rng := rand.New(rand.NewSource(17))
	data := make([]record.Record, n)
	for i := range data {
		switch {
		case i < 64:
			data[i] = record.Record{Key: int64(1000 + i), Aux: uint64(i)}
		case i%3 == 0:
			data[i] = record.Record{Key: 2, Aux: uint64(n / 2)}
		default:
			data[i] = record.Record{Key: rng.Int63n(5), Aux: uint64(i)}
		}
	}
	return data
}

// TestKeyedMatchesComparatorEverywhere sweeps the six paper distributions
// across every run-generation policy: the keyed and comparator paths must
// produce identical output at a budget small enough to force real spills
// and multi-source merges (and, under quick, the radix batch sort). The
// refining rows hold a comparator that orders within key ties — the Key
// codec coarsens it, and ties must go back to it in the heaps, the quick
// batches and the merge (an intermediate pass at memory 256, a lone final
// one at 4096) alike.
func TestKeyedMatchesComparatorEverywhere(t *testing.T) {
	dists := map[string]DatasetKind{
		"sorted": DatasetSorted, "reverse": DatasetReverseSorted,
		"alternating": DatasetAlternating, "random": DatasetRandom,
		"mixed": DatasetMixedBalanced, "imbalanced": DatasetMixedImbalanced,
	}
	for name, kind := range dists {
		data := Dataset(kind, 20_000, 42)
		// Duplicate-heavy variant: fold keys to a tiny space so tie
		// placement is exercised, with Aux distinguishing the records.
		dup := make([]record.Record, len(data))
		for i, r := range data {
			dup[i] = record.Record{Key: r.Key % 100, Aux: uint64(i)}
		}
		for _, policy := range Policies() {
			t.Run(fmt.Sprintf("%s/%s", name, policy), func(t *testing.T) {
				sortBothWays(t, record.Less, data, policy)
				sortBothWays(t, record.Less, dup, policy)
			})
		}
	}

	refining := refiningRecords(20_000)
	want := append([]record.Record(nil), refining...)
	sort.Slice(want, func(i, j int) bool { return totalRecLess(want[i], want[j]) })
	for _, policy := range Policies() {
		for _, memory := range []int{256, 4096} {
			t.Run(fmt.Sprintf("refining/%s/memory=%d", policy, memory), func(t *testing.T) {
				got := sortBothWays(t, totalRecLess, refining, policy, WithMemoryRecords(memory))
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("element %d = %+v, want %+v: not the comparator's order", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestKeyedFloatsMatchComparator sorts float64s holding both zeros, keyed
// and WithoutKeys, and requires the same bits at every position: -0.0 and
// +0.0 tie under `<` and share a key, so they land where the comparator's
// sort puts them. The zeros first appear after the 64-element sample that
// validates the inferred codec, or inside it, which must not turn the keys
// off.
func TestKeyedFloatsMatchComparator(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(13))
	for _, zerosFrom := range []int{64, 0} {
		data := make([]float64, 20_000)
		for i := range data {
			data[i] = float64(rng.Intn(2000)-1000) / 8
			if i >= zerosFrom && rng.Intn(4) == 0 {
				data[i] = []float64{negZero, 0}[rng.Intn(2)]
			}
		}
		for _, policy := range []string{"quick", "2wrs"} {
			run := func(opts ...Option) ([]float64, Stats) {
				opts = append([]Option{WithPolicy(policy), WithMemoryRecords(1000)}, opts...)
				s, err := New(func(a, b float64) bool { return a < b }, opts...)
				if err != nil {
					t.Fatal(err)
				}
				out, stats, err := s.SortSlice(context.Background(), data)
				if err != nil {
					t.Fatal(err)
				}
				return out, stats
			}
			keyed, kst := run()
			comp, _ := run(WithoutKeys())
			if !kst.Keyed {
				t.Fatalf("zeros from %d, policy %s: the inferred float64 codec did not engage", zerosFrom, policy)
			}
			for i := range comp {
				if math.Float64bits(keyed[i]) != math.Float64bits(comp[i]) {
					t.Fatalf("zeros from %d, policy %s: diverge at %d: keyed %v vs comparator %v",
						zerosFrom, policy, i, keyed[i], comp[i])
				}
			}
		}
	}
}

// TestKeyedStringsMatchComparator drives the variable-width key path (and
// with it the merge on key words that tie on long shared prefixes) on
// string elements, keyed versus comparator-only.
func TestKeyedStringsMatchComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]string, 20_000)
	for i := range data {
		data[i] = fmt.Sprintf("tenant/%04d/object/%06d%s",
			rng.Intn(40), rng.Intn(1000), strings.Repeat("x", rng.Intn(20)))
	}
	cfg := DefaultConfig(1 << 10)
	for _, policy := range []string{"quick", "2wrs"} {
		run := func(opts ...Option) ([]string, Stats) {
			opts = append([]Option{WithConfig(cfg), WithPolicy(policy), WithCodec(StringCodec())}, opts...)
			s, err := New(func(a, b string) bool { return a < b }, opts...)
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := s.SortSlice(context.Background(), data)
			if err != nil {
				t.Fatal(err)
			}
			return out, stats
		}
		keyed, kst := run()
		comp, cst := run(WithoutKeys())
		if !kst.Keyed || cst.Keyed {
			t.Fatalf("policy %s: Keyed flags wrong: keyed=%v comp=%v", policy, kst.Keyed, cst.Keyed)
		}
		for i := range comp {
			if keyed[i] != comp[i] {
				t.Fatalf("policy %s: diverge at %d: %q vs %q", policy, i, keyed[i], comp[i])
			}
		}
	}
}

// TestExplicitWrongKeyCodecRejected pins satellite behavior: a caller-
// supplied codec whose byte order contradicts the comparator must fail the
// sampled validation with an error, not silently sort wrong.
func TestExplicitWrongKeyCodecRejected(t *testing.T) {
	desc := func(a, b int64) bool { return b < a }
	s, err := New(desc, WithConfig(DefaultConfig(1<<10)), WithKeyCodec(Int64KeyCodec()))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(i * 7 % 501)
	}
	if _, _, err := s.SortSlice(context.Background(), data); err == nil {
		t.Fatal("ascending key codec against a descending comparator must be rejected")
	} else if !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// TestInferredCodecSilentFallback: the same descending comparator with no
// explicit codec sorts correctly — the inferred ascending codec fails the
// sample check and is dropped without an error, Stats.Keyed=false.
func TestInferredCodecSilentFallback(t *testing.T) {
	desc := func(a, b int64) bool { return b < a }
	s, err := New(desc, WithConfig(DefaultConfig(1<<10)))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, 20_000)
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = rng.Int63n(1 << 20)
	}
	out, stats, err := s.SortSlice(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keyed {
		t.Fatal("descending sort must fall back to the comparator (Stats.Keyed=false)")
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] > out[j] }) {
		t.Fatal("fallback sort produced wrong order")
	}
	// Sanity: ascending int64 with the natural comparator does engage.
	asc, err := New(func(a, b int64) bool { return a < b }, WithConfig(DefaultConfig(1<<10)))
	if err != nil {
		t.Fatal(err)
	}
	if _, stats, err := asc.SortSlice(context.Background(), data); err != nil || !stats.Keyed {
		t.Fatalf("ascending int64 should run keyed: err=%v keyed=%v", err, stats.Keyed)
	}
}

// TestInferredCodecMisorderFails: an inferred key codec that passes the
// sampled check but disagrees with the comparator later in the input must
// fail the sort, never return misordered output. Under a case-insensitive
// comparator the inferred string codec orders "K…" before "k…" where the
// comparator ties them. With the lowercase half first, every run is
// single-case and in order, and only the final merge can see the
// disagreement; with the cases interleaved, a run writer sees it first.
// The same codec supplied through WithKeyCodec is held to the same check,
// over the halves under every policy. Every error wraps
// runio.ErrOutOfOrder and names WithoutKeys, whether SortSlice or Distinct
// drains the final merge.
func TestInferredCodecMisorderFails(t *testing.T) {
	fold := func(a, b string) bool { return strings.ToLower(a) < strings.ToLower(b) }
	halves := make([]string, 0, 2560)
	for _, f := range []string{"k%05d", "K%05d"} {
		for i := 0; i < 1280; i++ {
			halves = append(halves, fmt.Sprintf(f, i))
		}
	}
	mixed := make([]string, 2560)
	for i := range mixed {
		mixed[i] = fmt.Sprintf("k%05d", i)
		if i >= 64 && i%2 == 1 {
			mixed[i] = strings.ToUpper(mixed[i])
		}
	}
	check := func(name, policy string, data []string, opts ...Option) {
		t.Helper()
		s, err := New(fold, append([]Option{WithMemoryRecords(256), WithPolicy(policy)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), data)
		if err == nil {
			sorted := sort.SliceIsSorted(out, func(i, j int) bool { return fold(out[i], out[j]) })
			t.Fatalf("%s, policy %s: nil error (Keyed=%v, %d runs, output sorted: %v)", name, policy, stats.Keyed, stats.Runs, sorted)
		}
		if !errors.Is(err, runio.ErrOutOfOrder) || !strings.Contains(err.Error(), "WithoutKeys") {
			t.Fatalf("%s, policy %s: error %q does not wrap runio.ErrOutOfOrder and name WithoutKeys", name, policy, err)
		}
		// An operator drains the merged stream itself: the same check, the
		// same explanation.
		_, err = s.Distinct(context.Background(), newSliceSource(data), &sliceSink[string]{})
		if !errors.Is(err, runio.ErrOutOfOrder) || !strings.Contains(err.Error(), "WithoutKeys") {
			t.Fatalf("%s, policy %s: Distinct's error %q does not wrap runio.ErrOutOfOrder and name WithoutKeys", name, policy, err)
		}
		s, err = New(fold, append([]Option{WithMemoryRecords(256), WithPolicy(policy)}, append(opts, WithoutKeys())...)...)
		if err != nil {
			t.Fatal(err)
		}
		if out, _, err = s.SortSlice(context.Background(), data); err != nil {
			t.Fatalf("%s, policy %s, WithoutKeys: %v", name, policy, err)
		}
		if !sort.SliceIsSorted(out, func(i, j int) bool { return fold(out[i], out[j]) }) {
			t.Fatalf("%s, policy %s, WithoutKeys: output not sorted", name, policy)
		}
	}
	check("case halves", "quick", halves)
	for _, policy := range Policies() {
		check("cases mixed", policy, mixed)
		check("case halves, WithKeyCodec", policy, halves, WithKeyCodec(StringKeyCodec()))
	}
}

// opaquePair is an element type the library has no inferred key codec for.
type opaquePair struct {
	Hi, Lo uint32
}

type opaquePairCodec struct{}

func (opaquePairCodec) Append(buf []byte, v opaquePair) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, v.Hi)
	return binary.LittleEndian.AppendUint32(buf, v.Lo)
}

func (opaquePairCodec) Decode(buf []byte) (opaquePair, int, error) {
	if len(buf) < 8 {
		return opaquePair{}, 0, ErrShortCodec
	}
	return opaquePair{
		Hi: binary.LittleEndian.Uint32(buf),
		Lo: binary.LittleEndian.Uint32(buf[4:]),
	}, 8, nil
}

func (opaquePairCodec) FixedSize() int { return 8 }

// TestOpaqueTypeSortsComparatorOnly: a type with no built-in key codec
// silently takes the comparator path — no error, Stats.Keyed=false.
func TestOpaqueTypeSortsComparatorOnly(t *testing.T) {
	less := func(a, b opaquePair) bool {
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Lo < b.Lo
	}
	s, err := New(less, WithConfig(DefaultConfig(1<<10)), WithCodec[opaquePair](opaquePairCodec{}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	data := make([]opaquePair, 10_000)
	for i := range data {
		data[i] = opaquePair{Hi: rng.Uint32() % 64, Lo: rng.Uint32()}
	}
	out, stats, err := s.SortSlice(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Keyed {
		t.Fatal("opaque type must not report Stats.Keyed=true")
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return less(out[i], out[j]) }) {
		t.Fatal("opaque sort produced wrong order")
	}

	// The same type with an explicit composite codec runs keyed: two
	// big-endian uint32 fields pack the whole element into 8 key bytes.
	kc, err := CompositeKeyCodec[opaquePair](8, true,
		func(buf []byte, v opaquePair) []byte { return binary.BigEndian.AppendUint32(buf, v.Hi) },
		func(buf []byte, v opaquePair) []byte { return binary.BigEndian.AppendUint32(buf, v.Lo) },
	)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := New(less, WithConfig(DefaultConfig(1<<10)),
		WithCodec[opaquePair](opaquePairCodec{}), WithKeyCodec(kc))
	if err != nil {
		t.Fatal(err)
	}
	kout, kstats, err := ks.SortSlice(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	if !kstats.Keyed {
		t.Fatal("explicit composite codec did not engage")
	}
	for i := range out {
		if kout[i] != out[i] {
			t.Fatalf("keyed composite output diverges at %d", i)
		}
	}
}

// TestKeyedPhaseTimingsPopulated: the per-phase wall clocks the benchmark
// harness records must be live on the keyed path.
func TestKeyedPhaseTimingsPopulated(t *testing.T) {
	s, err := New(record.Less, WithConfig(DefaultConfig(1<<10)))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.SortSlice(context.Background(), Dataset(DatasetRandom, 50_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	live := len(stats.Phases) == 2 && stats.Phases[0].Wall > 0 && stats.Phases[1].Wall > 0
	if !stats.Keyed || !live {
		t.Fatalf("stats = keyed=%v phases=%v, want keyed with live generate and merge clocks", stats.Keyed, stats.Phases)
	}
}
