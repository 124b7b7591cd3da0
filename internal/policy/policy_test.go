package policy

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/record"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

func generate(t *testing.T, kind Kind, recs []record.Record, memory int) (Result, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	res, err := Generate(kind, stream.NewSliceReader(recs), runio.RecordEmitter(fs, "pol"), Config{Memory: memory}, record.Key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("%v consumed %d records, want %d", kind, res.Records, len(recs))
	}
	return res, fs
}

// readRun reads a run back in ascending order: a concatenable run is one
// piece, and one whose stream ranges overlap is a piece per segment, merged
// by the loser tree as the merge phase would.
func readRun(fs vfs.FS, run runio.Run, bufBytes int) ([]record.Record, error) {
	pieces, err := runio.OpenRun(storage.NewRaw(fs), run, bufBytes, codec.Record16{})
	if err != nil {
		return nil, err
	}
	srcs := make([]merge.Source[record.Record], len(pieces))
	for i, p := range pieces {
		srcs[i] = p
	}
	lt, err := merge.NewLoserTree(srcs, record.Less)
	if err != nil {
		return nil, err
	}
	defer lt.Close()
	return stream.ReadAllCancel[record.Record](lt, nil)
}

// verify checks that every run reads back sorted and that the runs union to
// a permutation of the input.
func verify(t *testing.T, fs vfs.FS, runs []runio.Run, input []record.Record) {
	t.Helper()
	union := make(record.Multiset)
	for i, run := range runs {
		recs, err := readRun(fs, run, 4096)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !record.IsSorted(recs) {
			t.Fatalf("run %d not sorted", i)
		}
		if int64(len(recs)) != run.Records {
			t.Fatalf("run %d: manifest %d vs read %d", i, run.Records, len(recs))
		}
		for _, rec := range recs {
			union[rec]++
		}
	}
	if !union.Equal(record.NewMultiset(input)) {
		t.Fatal("runs are not a permutation of the input")
	}
}

// sawtooth builds the classic RS killer: a descending staircase of
// ascending teeth. Each tooth ascends for `tooth` records, and every tooth
// sits strictly below the previous one, so the input is locally ascending
// but globally descending.
func sawtooth(n, tooth int) []record.Record {
	recs := make([]record.Record, n)
	teeth := n/tooth + 1
	for i := range recs {
		t, pos := i/tooth, i%tooth
		recs[i] = record.Record{Key: int64(teeth-t)*int64(2*tooth) + int64(pos), Aux: uint64(i)}
	}
	return recs
}

func TestFixedPoliciesAllDistributions(t *testing.T) {
	const n, m = 20000, 500
	for _, kind := range []Kind{TwoWayRS, RS, Alternating, Quick} {
		for _, dist := range gen.Kinds {
			recs := gen.Generate(gen.Config{Kind: dist, N: n, Seed: 11, Noise: 1000})
			res, fs := generate(t, kind, recs, m)
			if len(res.Runs) == 0 {
				t.Fatalf("%v/%v: no runs", kind, dist)
			}
			verify(t, fs, res.Runs, recs)
		}
	}
}

func TestAutoAllDistributions(t *testing.T) {
	const n, m = 20000, 500
	for _, dist := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: dist, N: n, Seed: 13, Noise: 1000})
		res, fs := generate(t, Auto, recs, m)
		verify(t, fs, res.Runs, recs)
	}
}

// TestDescendingDegeneratesClassicRSOnly is the adversarial contrast the
// policy layer exists for: on a descending stream classic RS is pinned to
// memory-sized runs, while the alternating and two-way generators absorb
// the trend into runs far beyond 2M.
func TestDescendingDegeneratesClassicRSOnly(t *testing.T) {
	const n, m = 40000, 1000
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: n, Seed: 3, Noise: 100})

	rsRes, rsFS := generate(t, RS, recs, m)
	if len(rsRes.Runs) < n/m {
		t.Fatalf("classic RS produced %d runs on descending input, want ≥ %d (memory-sized degeneration)", len(rsRes.Runs), n/m)
	}
	verify(t, rsFS, rsRes.Runs, recs)

	for _, kind := range []Kind{TwoWayRS, Alternating, Auto} {
		res, fs := generate(t, kind, recs, m)
		// ~2M average run length means at most n/2m runs; allow slack for
		// the leading ascending run the alternation may open with.
		if maxRuns := n / (2 * m); len(res.Runs) > maxRuns {
			t.Fatalf("%v produced %d runs on descending input, want ≤ %d", kind, len(res.Runs), maxRuns)
		}
		verify(t, fs, res.Runs, recs)
	}
}

// TestSawtoothDegeneratesClassicRSOnly: locally ascending teeth on a
// descending staircase fool RS's run-extension rule but not the
// direction-aware generators.
func TestSawtoothDegeneratesClassicRSOnly(t *testing.T) {
	const n, m = 40000, 1000
	recs := sawtooth(n, m/2)

	rsRes, rsFS := generate(t, RS, recs, m)
	if minRuns := (n / m) * 8 / 10; len(rsRes.Runs) < minRuns {
		t.Fatalf("classic RS produced %d runs on the sawtooth, want ≥ %d", len(rsRes.Runs), minRuns)
	}
	verify(t, rsFS, rsRes.Runs, recs)

	for _, kind := range []Kind{TwoWayRS, Alternating, Auto} {
		res, fs := generate(t, kind, recs, m)
		if maxRuns := n / (2 * m); len(res.Runs) > maxRuns {
			t.Fatalf("%v produced %d runs on the sawtooth, want ≤ %d (~2M run length)", kind, len(res.Runs), maxRuns)
		}
		verify(t, fs, res.Runs, recs)
	}
}

// TestAutoDecidesOnce is auto's oracle: on each of the paper's datasets,
// and on a stream whose order regime turns from ascending to descending
// half-way, an auto pass writes byte-identical run files to the fixed
// stepper its probe names, built directly — Alternating opening in the
// probe's direction. The probe sees only the first memory-load, so the
// turn does not change the choice.
func TestAutoDecidesOnce(t *testing.T) {
	const n, m = 20000, 500
	turn := make([]record.Record, n)
	for i := range turn {
		turn[i] = record.Record{Key: int64(min(i, n-i)), Aux: uint64(i)}
	}
	type input struct {
		name string
		recs []record.Record
	}
	inputs := []input{{"ascending_then_descending", turn}}
	for _, dist := range gen.Kinds {
		inputs = append(inputs, input{dist.String(), gen.Generate(gen.Config{Kind: dist, N: n, Seed: 17, Noise: 1000})})
	}
	for _, in := range inputs {
		z := Sizing{Memory: m, Merge: merge.Config{MemoryBytes: m * 16}}
		c, _, err := Decide(Auto, stream.NewSliceReader(in.recs), runio.RecordEmitter(vfs.Discard{}, "pol"), z)
		if err != nil {
			t.Fatal(err)
		}
		kind, down := c.Kind, c.down
		if in.name == "ascending_then_descending" && kind != RS {
			t.Fatalf("%s: the probe chose %v for the ascending prefix, want rs", in.name, kind)
		}
		pass := func(auto bool) (Result, *vfs.MemFS) {
			fs := vfs.NewMemFS()
			src, em := stream.NewSliceReader(in.recs), runio.RecordEmitter(fs, "pol")
			var g Driven
			var err error
			switch {
			case auto:
				var c Choice
				var in stream.BatchReader[record.Record]
				if c, in, err = Decide(Auto, src, em, z); err == nil {
					g, err = Build(c, in, em, Config{Memory: m}, record.Key)
				}
			case kind == Alternating:
				var st *rs.Stepper[record.Record]
				st, err = rs.NewStepper(src, em, m, true, down)
				g = fixed{st, kind}
			default:
				g, err = Build(Choice{Kind: kind}, src, em, Config{Memory: m}, record.Key)
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.Kind() != kind {
				t.Fatalf("%s: auto names %v, its probe %v", in.name, g.Kind(), kind)
			}
			res, err := Drive(g, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res, fs
		}
		t.Logf("%s: the probe chose %v (down %v)", in.name, kind, down)
		autoRes, autoFS := pass(true)
		fixedRes, fixedFS := pass(false)
		if !reflect.DeepEqual(autoRes, fixedRes) {
			t.Fatalf("%s: auto wrote %d runs, %v alone %d", in.name, len(autoRes.Runs), kind, len(fixedRes.Runs))
		}
		if got, want := files(t, autoFS), files(t, fixedFS); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: auto's %d run files differ from %v's %d", in.name, len(got), kind, len(want))
		}
		verify(t, autoFS, autoRes.Runs, in.recs)
	}
}

// files returns the content of every file on fs by name.
func files(t *testing.T, fs *vfs.MemFS) map[string][]byte {
	t.Helper()
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = make([]byte, size)
		if _, err := f.ReadAt(out[name], 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

func TestMeasureShapes(t *testing.T) {
	mk := func(kind gen.Kind) Stats {
		recs := gen.Generate(gen.Config{Kind: kind, N: 8192, Seed: 5, Noise: 1000})
		return Measure(recs, record.Less)
	}
	if st := mk(gen.Sorted); st.InvRatio > 0.05 || st.AscFrac < 0.99 {
		t.Fatalf("sorted stats: %+v", st)
	}
	if st := mk(gen.ReverseSorted); st.InvRatio < 0.95 || st.DescFrac < 0.99 {
		t.Fatalf("reverse stats: %+v", st)
	}
	if st := mk(gen.Random); st.InvRatio < 0.3 || st.InvRatio > 0.7 || st.Zigzag < 0.5 || st.Zigzag > 0.8 {
		t.Fatalf("random stats: %+v", st)
	}
	if st := mk(gen.MixedBalanced); st.Zigzag < 0.9 {
		t.Fatalf("mixed stats: %+v", st)
	}
	if st := Measure(sawtooth(8192, 256), record.Less); st.AscFrac < 0.9 || st.InvRatio < 0.3 {
		t.Fatalf("sawtooth stats: %+v", st)
	}
}

func TestParseAndNames(t *testing.T) {
	for _, k := range Kinds {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = (%v, %v)", k.String(), got, err)
		}
	}
	for name, want := range map[string]Kind{"alt": Alternating, "lss": Quick, "LSS": Quick, "": TwoWayRS} {
		if k, err := Parse(name); err != nil || k != want {
			t.Fatalf("Parse(%q) = (%v, %v), want %v", name, k, err, want)
		}
	}
	if k, err := Parse("bogus"); err == nil || k.Validate() == nil {
		t.Fatalf("Parse accepted an unknown policy: (%v, %v)", k, err)
	}
	if len(Names()) != len(Kinds) {
		t.Fatalf("Names() = %v", Names())
	}
	var zero Kind
	if zero != TwoWayRS || zero.String() != "2wrs" {
		t.Fatalf("the zero Kind is %v, want 2wrs", zero)
	}
}

// TestChoosePerDistribution is Auto's rule table: the policy the cost table
// picks for each of the paper's datasets at N/M of 16, 61, 256 and 4096,
// with one generator (M = 2^14) and with 32 lanes (M = 2^20, extsort's
// Lanes), probing the dataset's real first memory-load and pricing the
// merge at the derived fan-in. At M = 2^14 and N ≈ 10^6 (61 loads) mixed,
// imbalanced and random input goes to quick, reverse to alternating opening
// down and sorted to rs; at 256 loads quick's two extra passes outprice
// 2wrs's generation on mixed input. The alternating dataset's first load is
// one ascending section from 61 loads on.
func TestChoosePerDistribution(t *testing.T) {
	want := map[string][4]string{
		"sorted/16384":        {"rs", "rs", "rs", "rs"},
		"reverse/16384":       {"alternating/down", "alternating/down", "alternating/down", "alternating/down"},
		"alternating/16384":   {"quick", "rs", "rs", "rs"},
		"random/16384":        {"quick", "quick", "quick", "quick"},
		"mixed/16384":         {"quick", "quick", "2wrs", "quick"},
		"imbalanced/16384":    {"quick", "quick", "quick", "quick"},
		"sorted/1048576":      {"rs", "rs", "rs", "rs"},
		"reverse/1048576":     {"alternating/down", "alternating/down", "alternating/down", "alternating/down"},
		"alternating/1048576": {"quick", "rs", "rs", "rs"},
		"random/1048576":      {"quick", "quick", "quick", "quick"},
		"mixed/1048576":       {"quick", "quick", "quick", "quick"},
		"imbalanced/1048576":  {"quick", "quick", "quick", "quick"},
	}
	for _, m := range []int{1 << 14, 1 << 20} {
		for _, dist := range gen.Kinds {
			row := fmt.Sprintf("%v/%d", dist, m)
			for i, loads := range []int{16, 61, 256, 4096} {
				src := stream.AsBatchReader[record.Record](gen.New(gen.Config{Kind: dist, N: loads * m, Seed: 7, Noise: 1000}))
				z := Sizing{Memory: m, Lanes: (m + 1<<15 - 1) >> 15, Merge: merge.Config{MemoryBytes: m * 16}}
				c, _, err := Decide(Auto, src, runio.RecordEmitter(vfs.Discard{}, "pol"), z)
				if err != nil {
					t.Fatal(err)
				}
				got := c.Kind.String()
				if c.down {
					got += "/down"
				}
				if got != want[row][i] {
					t.Errorf("%s at N/M = %d: auto picks %s, want %s", row, loads, got, want[row][i])
				}
			}
		}
	}
}
