package policy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// calLane and calLoads size the calibration: one lane of the most elements a
// lane holds (2^15), over an input of 32 of its memory-loads.
const (
	calLane  = 1 << 15
	calLoads = 32
	calReps  = 5
)

// calShapes is the dataset each row of the cost table is measured on.
var calShapes = []struct {
	sh   shape
	kind gen.Kind
}{
	{unordered, gen.Random},
	{ascending, gen.Sorted},
	{descending, gen.ReverseSorted},
	{interleaved, gen.MixedBalanced},
	{sectioned, gen.Alternating},
}

// asStrings turns records into variable-width strings in the same order:
// the key offset to 19 digits, a dash, then a tail of 0 to 40 letters.
func asStrings(recs []record.Record) []string {
	rng := rand.New(rand.NewSource(1))
	out := make([]string, len(recs))
	var b []byte
	for i, r := range recs {
		b = strconv.AppendInt(b[:0], 1e18+r.Key, 10)
		b = append(b, '-')
		for tail := rng.Intn(41); tail > 0; tail-- {
			b = append(b, byte('a'+rng.Intn(26)))
		}
		out[i] = string(b)
	}
	return out
}

// calEmitter is a sort's emitter at one lane: a spill arena in dir, its
// blocks and backward chains sized as extsort sizes them for a lane of
// calLane elements.
func calEmitter[T any](dir string, c codec.Codec[T], kc codec.KeyCodec[T], less func(a, b T) bool, eb int) *runio.Emitter[T] {
	block := runio.BlockBytes(calLane * eb)
	st := storage.NewRaw(vfs.NewArena(vfs.NewOSFS(dir), "cal.arena", block))
	storage.PoolOf(st).Reserve(calLane * eb)
	em := runio.NewEmitterOn(st, "cal", c, less)
	em.KeyCodec, em.Block, em.PagesPerFile = kc, block, runio.BackwardPages(calLane, eb)
	return em
}

// calGenerate returns the least ns per record of generating vals under
// the choice c, over calReps passes, and the run length over the lane's memory
// (+Inf for one run).
func calGenerate[T any](b *testing.B, c Choice, vals []T, em *runio.Emitter[T], key func(T) float64) (ns, mult float64) {
	var times []float64
	var runs int
	for range calReps {
		t0 := time.Now()
		gen, err := Build(c, stream.NewSliceReader(vals), em, Config{Memory: calLane}, key)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Drive(gen, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(len(vals)))
		runs = len(res.Runs)
		for _, r := range res.Runs {
			r.Remove(em.Store)
		}
	}
	if mult = float64(len(vals)) / float64(runs) / calLane; runs == 1 {
		mult = math.Inf(1)
	}
	return slices.Min(times), mult
}

// calMerge returns the least ns per record of merging runs quick runs of
// random vals at fan-in fanIn (0: derived, one pass) into a sink that keeps
// nothing.
func calMerge[T any](b *testing.B, vals []T, em *runio.Emitter[T], eb, runs, fanIn int) float64 {
	var times []float64
	for range calReps {
		res, err := Generate(Quick, stream.NewSliceReader(vals[:runs*calLane]), em, Config{Memory: calLane}, nil)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, err := merge.Merge(em, res.Runs, discard[T]{}, merge.Config{FanIn: fanIn, MemoryBytes: calLane * eb}); err != nil {
			b.Fatal(err)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(runs*calLane))
	}
	return slices.Min(times)
}

type discard[T any] struct{}

func (discard[T]) Write(T) error        { return nil }
func (discard[T]) WriteBatch([]T) error { return nil }

// calElement measures one element class: ns[shape][kind] and mult, and the
// merge's cost of a pass after the first and of a doubling of the runs.
func calElement[T any](b *testing.B, name string, conv func([]record.Record) []T, c codec.Codec[T], kc codec.KeyCodec[T], less func(a, b T) bool, key func(T) float64, eb int) (ns, mult [5][Auto]float64, pass, log float64) {
	em := calEmitter(b.TempDir(), c, kc, less, eb)
	for _, s := range calShapes {
		vals := conv(genRecords(s.kind, calLoads*calLane))
		got, down := classify(Measure(vals[:calLane], less))
		if got != s.sh {
			b.Fatalf("%s/%v: the probe classifies it as shape %d, want %d", name, s.kind, got, s.sh)
		}
		for _, k := range Kinds[:Auto] {
			ns[s.sh][k], mult[s.sh][k] = calGenerate(b, Choice{Kind: k, down: down && k == Alternating}, vals, em, key)
		}
	}
	random := conv(genRecords(gen.Random, 64*calLane))
	two, wide := calMerge(b, random, em, eb, 2, 0), calMerge(b, random, em, eb, 64, 0)
	three := calMerge(b, random, em, eb, 64, 4) // 64 runs at fan-in 4: three passes
	log = (wide - two) / 5
	return ns, mult, (three - wide) / 2, log
}

func genRecords(kind gen.Kind, n int) []record.Record {
	return gen.Generate(gen.Config{Kind: kind, N: n, Seed: 42, Noise: 1000})
}

// BenchmarkCalibrate measures the constants of Auto's cost table (cost.go)
// and prints them in its layout:
//
//	go test ./internal/policy -run '^$' -bench Calibrate -benchtime 1x
//
// Generation is timed per shape and policy over 32 memory-loads of one
// 2^15-element lane, spilling to a temp dir; the merge over 2 and 64 quick
// runs in one pass, and 64 at fan-in 4 (three passes). Each time is the
// least of five, which a shared host disturbs least. The multiples on
// shapes without structure are not measured: the table states Bender et
// al.'s. Last, it prints auto against the best fixed policy on each of the
// paper's six datasets (calAuto).
func BenchmarkCalibrate(b *testing.B) {
	for range b.N {
		fg, fm, fp, fl := calElement(b, "fixed", func(r []record.Record) []record.Record { return r },
			codec.Codec[record.Record](codec.Record16{}), codec.KeyCodec[record.Record](codec.KeyRecord16{}), record.Less, record.Key, 16)
		vg, _, vp, vl := calElement(b, "varw", asStrings, codec.Codec[string](codec.String{}), codec.KeyCodec[string](codec.KeyString{}),
			func(a, b string) bool { return a < b }, nil, 32)
		names := []string{"unordered", "ascending", "descending", "interleaved", "sectioned"}
		for _, s := range calShapes {
			var cells []string
			for _, k := range Kinds[:Auto] {
				cells = append(cells, fmt.Sprintf("%s: {%.0f, %.0f, %.3g}", kindGoName[k], fg[s.sh][k], vg[s.sh][k], fm[s.sh][k]))
			}
			fmt.Printf("\t%s: {%s},\n", names[s.sh], strings.Join(cells, ", "))
		}
		fmt.Printf("mergeCost: {{%.1f, %.1f}, {%.1f, %.1f}}\n", fp, fl, vp, vl)
		calAuto(b)
	}
}

// calAuto sorts each of the paper's six datasets, generation and merge, at
// the calibration's sizes under every fixed policy and under auto, and
// prints auto's time over the best fixed policy's (the least of five each).
func calAuto(b *testing.B) {
	em := calEmitter(b.TempDir(), codec.Codec[record.Record](codec.Record16{}), codec.KeyCodec[record.Record](codec.KeyRecord16{}), record.Less, 16)
	for _, dist := range gen.Kinds {
		vals := genRecords(dist, calLoads*calLane)
		best, auto, name := math.Inf(1), 0.0, ""
		for _, k := range Kinds {
			var times []float64
			for range calReps {
				t0 := time.Now()
				res, err := Generate(k, stream.NewSliceReader(vals), em, Config{Memory: calLane}, record.Key)
				if err == nil {
					_, err = merge.Merge(em, res.Runs, discard[record.Record]{}, merge.Config{MemoryBytes: calLane * 16})
				}
				if err != nil {
					b.Fatal(err)
				}
				times = append(times, time.Since(t0).Seconds())
			}
			if t := slices.Min(times); k == Auto {
				auto = t
			} else if t < best {
				best, name = t, k.String()
			}
		}
		fmt.Printf("%-11v auto %.1f ms, best fixed %s %.1f ms: %.2fx\n", dist, auto*1e3, name, best*1e3, auto/best)
	}
}

var kindGoName = map[Kind]string{TwoWayRS: "TwoWayRS", RS: "RS", Alternating: "Alternating", Quick: "Quick"}
