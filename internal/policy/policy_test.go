package policy

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

func generate(t *testing.T, kind Kind, recs []record.Record, memory int) (Result, vfs.FS) {
	t.Helper()
	fs := vfs.NewMemFS()
	res, err := Generate(kind, record.NewSliceReader(recs), runio.RecordEmitter(fs, "pol"), Config{Memory: memory}, record.Key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != int64(len(recs)) {
		t.Fatalf("%v consumed %d records, want %d", kind, res.Records, len(recs))
	}
	if len(res.Policies) != len(res.Runs) {
		t.Fatalf("%v: %d runs but %d policy entries", kind, len(res.Runs), len(res.Policies))
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
			for i, p := range res.Policies {
				if p != kind {
					t.Fatalf("%v/%v: run %d attributed to %v", kind, dist, i, p)
				}
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

// TestAutoSwitchesAtRunBoundaryOnRegimeChange feeds an ascending half
// followed by a descending half: the probe commits to classic RS, the
// rolling window detects the reversal, and the engine must switch
// generators at a run boundary — recorded in Result.Policies — without
// losing a record.
func TestAutoSwitchesAtRunBoundaryOnRegimeChange(t *testing.T) {
	const n, m = 60000, 1000
	recs := make([]record.Record, n)
	for i := 0; i < n/2; i++ {
		recs[i] = record.Record{Key: int64(i), Aux: uint64(i)}
	}
	for i := n / 2; i < n; i++ {
		recs[i] = record.Record{Key: int64(2*n - i), Aux: uint64(i)}
	}
	res, fs := generate(t, Auto, recs, m)
	verify(t, fs, res.Runs, recs)

	if res.Switches < 1 {
		t.Fatalf("auto made %d switches on a regime-changing stream, want ≥ 1", res.Switches)
	}
	if res.Policies[0] != RS {
		t.Fatalf("probe chose %v for the ascending prefix, want rs", res.Policies[0])
	}
	changed := false
	for i := 1; i < len(res.Policies); i++ {
		if res.Policies[i] != res.Policies[i-1] {
			changed = true
			if res.Policies[i] == RS {
				t.Fatalf("auto switched back to rs at run %d: %v", i, res.Policies)
			}
		}
	}
	if !changed {
		t.Fatalf("policies never changed across runs: %v", res.Policies)
	}
	// The descending half must not fragment into memory-sized runs: the
	// switch has to pay off.
	if maxRuns := n/(2*m) + 2; len(res.Runs) > maxRuns {
		t.Fatalf("auto produced %d runs, want ≤ %d", len(res.Runs), maxRuns)
	}
}

// switchingInput changes regime four times at a memory of 64: ascending
// (the probe commits to rs), random, a noisy descent that pins rs to bare
// memory-sized runs (the feedback rule drops to quick, which is still
// reading its predecessor's carry one boundary later), ascending again
// (rs is wanted but already abandoned: the oscillation lock settles on
// 2wrs) and a random tail that puts boundaries behind the lock.
func switchingInput() []record.Record {
	rng := rand.New(rand.NewSource(1))
	var recs []record.Record
	for _, seg := range []struct {
		n   int
		key func(i int) int64
	}{
		{400, func(i int) int64 { return int64(i) }},
		{1000, func(int) int64 { return rng.Int63n(1 << 20) }},
		{1000, func(i int) int64 { return int64(10000-i) + rng.Int63n(40) }},
		{500, func(i int) int64 { return int64(i) }},
		{400, func(int) int64 { return rng.Int63n(1 << 20) }},
	} {
		for i := 0; i < seg.n; i++ {
			recs = append(recs, record.Record{Key: seg.key(i), Aux: uint64(len(recs))})
		}
	}
	return recs
}

// TestAdaptiveCheckpointRestoreExactState gives the adaptive generator the
// check internal/core's TestCheckpointRestoreExactState applies to 2WRS: at
// every run boundary — the ones between a decided switch and the
// successor's first run, behind the oscillation lock and with a carry half
// read included — a second generator restored from the checkpoint over the
// rest of the input must stand exactly where the first does (an immediate
// Checkpoint lists the same records and returns the same words) and go on
// to emit the run, under the policy, the first emits next.
func TestAdaptiveCheckpointRestoreExactState(t *testing.T) {
	recs, cfg := switchingInput(), Config{Memory: 64}
	src, fsA := record.NewSliceReader(recs), vfs.NewMemFS()
	g, err := NewGenerator[record.Record](Auto, src, runio.RecordEmitter(fsA, "a"), cfg, record.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := func(g Generator[record.Record]) (cp Checkpoint[record.Record]) {
		cp.State = g.Checkpoint(func(r record.Record) { cp.Recs = append(cp.Recs, r) })
		return cp
	}
	readRun := func(fs vfs.FS, run runio.Run) []record.Record {
		out, err := readRun(fs, run, 4096)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var (
		next                          []record.Record // the run the generator restored at the previous boundary emitted
		nextKind                      Kind
		pending, halfRead, afterLock  int // boundaries of each kind seen
		restoredSwitches, restoredRun = 0, false
	)
	for boundary := 1; ; boundary++ {
		run, ok, err := g.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if boundary > 1 && (ok != restoredRun || ok && (!slices.Equal(readRun(fsA, run), next) || g.Kind() != nextKind)) {
			t.Fatalf("the generator restored at boundary %d emitted a different next run than the original", boundary-1)
		}
		if !ok {
			if restoredSwitches != g.Switches() {
				t.Fatalf("the last restored generator counts %d switches, the original %d", restoredSwitches, g.Switches())
			}
			break
		}
		a := g.(*adaptive[record.Record])
		switch queued := len(a.queue.Head()); {
		case a.cur == nil:
			pending++
		case queued > 0:
			halfRead++
		}
		if a.locked {
			afterLock++
		}
		cp, pos := list(g), len(recs)-src.Remaining()
		cp.Tail = recs[max(0, pos-cfg.Window()):pos]
		fsB := vfs.NewMemFS()
		r, err := NewGenerator[record.Record](Auto, record.NewSliceReader(recs[pos:]), runio.RecordEmitter(fsB, "b"), cfg, record.Key, &cp)
		if err != nil {
			t.Fatalf("boundary %d: restore: %v", boundary, err)
		}
		if cp2 := list(r); !slices.Equal(cp.Recs, cp2.Recs) || !slices.Equal(cp.State, cp2.State) {
			t.Fatalf("boundary %d: restored generator stands elsewhere:\n state %v\n  from %v", boundary, cp2.State, cp.State)
		}
		run, restoredRun, err = r.NextRun()
		if err != nil {
			t.Fatal(err)
		}
		if next, restoredSwitches = nil, r.Switches(); restoredRun {
			next, nextKind = readRun(fsB, run), r.Kind()
		}

		// A garbled engine word is refused, never stepped from.
		bad := cp
		bad.State = slices.Clone(cp.State)
		bad.State[len(bad.State)-engineWords] = uint64(Auto)
		if _, err := NewGenerator[record.Record](Auto, record.NewSliceReader(recs[pos:]), runio.RecordEmitter(fsB, "c"), cfg, record.Key, &bad); err == nil {
			t.Fatalf("boundary %d: restore accepted auto as the current stepper's policy", boundary)
		}
	}
	if g.Switches() < 2 || pending < 2 || halfRead == 0 || afterLock < 2 {
		t.Fatalf("%d switches, %d boundaries with the successor pending, %d with a carry half read, %d behind the lock: the input no longer exercises them",
			g.Switches(), pending, halfRead, afterLock)
	}
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

func TestChoosePerDistribution(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
		want Kind
	}{
		{"sorted", Stats{N: 8192, AscFrac: 1, InvRatio: 0}, RS},
		{"reverse", Stats{N: 8192, DescFrac: 1, InvRatio: 1}, Alternating},
		{"sawtooth", Stats{N: 8192, AscFrac: 0.95, DescFrac: 0.05, InvRatio: 0.9}, Alternating},
		{"mixed", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.99, InvRatio: 0.5, AvgMono: 2}, TwoWayRS},
		{"random", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.66, InvRatio: 0.5, AvgMono: 2}, TwoWayRS},
		{"sections", Stats{N: 8192, AscFrac: 0.5, DescFrac: 0.5, Zigzag: 0.01, InvRatio: 0.5, AvgMono: 160}, TwoWayRS},
	}
	for _, c := range cases {
		if got, _, _ := choose(c.st); got != c.want {
			t.Fatalf("%s: choose = %v, want %v", c.name, got, c.want)
		}
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
