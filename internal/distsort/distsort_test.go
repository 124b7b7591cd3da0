package distsort

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// recordDataset derives a dataset from one of the six generator
// distributions with Aux a pure function of Key, so comparator-equal
// records are bitwise identical and sharded output must be byte-identical
// to the unsharded sort — not merely an equal multiset.
func recordDataset(kind gen.Kind, n int) []record.Record {
	recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 7, Noise: 1000})
	for i := range recs {
		recs[i].Aux = uint64(recs[i].Key) * 0x9E3779B97F4A7C15
	}
	return recs
}

// stringDataset maps a record distribution onto variable-width strings
// that sort in the same key order.
func stringDataset(kind gen.Kind, n int) []string {
	recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 11, Noise: 1000})
	out := make([]string, n)
	for i, r := range recs {
		// Zero-padded hex of the biased key keeps lexicographic order
		// equal to numeric order; the suffix varies the width.
		out[i] = fmt.Sprintf("%016x/%0*d", uint64(r.Key)^(1<<63), 1+i%7, i%997)
	}
	return out
}

func recOps() extsort.Ops[record.Record] { return extsort.RecordOps() }

func strOps() extsort.Ops[string] {
	return extsort.Ops[string]{Less: func(a, b string) bool { return a < b }, Codec: codec.String{}}
}

// runSharded sorts vals with the sharded engine on a fresh MemFS.
func runSharded[T any](t *testing.T, vals []T, cfg Config, ops extsort.Ops[T]) ([]T, extsort.Stats) {
	t.Helper()
	var out stream.SliceWriter[T]
	st, err := Sort(stream.NewSliceReader(vals), &out, vfs.NewMemFS(), cfg, ops)
	if err != nil {
		t.Fatalf("distsort.Sort: %v", err)
	}
	return out.Vals, st
}

// runUnsharded sorts vals with a single extsort run under the same
// template configuration — the byte-identity reference.
func runUnsharded[T any](t *testing.T, vals []T, ecfg extsort.Config, ops extsort.Ops[T]) []T {
	t.Helper()
	var out stream.SliceWriter[T]
	if _, err := extsort.Sort(stream.NewSliceReader(vals), &out, vfs.NewMemFS(), ecfg, ops); err != nil {
		t.Fatalf("extsort.Sort: %v", err)
	}
	return out.Vals
}

func shardedCfg(shards, memory int) Config {
	return Config{Shards: shards, Extsort: extsort.Config{Memory: memory}}
}

// TestShardedEquivalenceMatrix pins the engine's central guarantee across
// all six generator distributions, fixed- and variable-width codecs, and
// keyed versus comparator partitioning: the sharded output is
// byte-identical to the single-threaded extsort run.
func TestShardedEquivalenceMatrix(t *testing.T) {
	n, memory, shards := 6000, 500, 4
	if testing.Short() {
		n = 3000
	}
	for _, kind := range gen.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("record16_keyed", func(t *testing.T) {
				equivCase(t, recordDataset(kind, n), shardedCfg(shards, memory), recOps())
			})
			t.Run("record16_comparator", func(t *testing.T) {
				ops := recOps()
				ops.KeyCodec = nil
				equivCase(t, recordDataset(kind, n), shardedCfg(shards, memory), ops)
			})
			t.Run("string_keyed", func(t *testing.T) {
				ops := strOps()
				ops.KeyCodec = codec.KeyString{}
				equivCase(t, stringDataset(kind, n), shardedCfg(shards, memory), ops)
			})
			t.Run("string_comparator", func(t *testing.T) {
				equivCase(t, stringDataset(kind, n), shardedCfg(shards, memory), strOps())
			})
		})
	}
}

func equivCase[T comparable](t *testing.T, vals []T, cfg Config, ops extsort.Ops[T]) {
	t.Helper()
	want := runUnsharded(t, vals, cfg.Extsort, ops)
	got, st := runSharded(t, vals, cfg, ops)
	if !slices.Equal(got, want) {
		t.Fatalf("sharded output differs from unsharded (%d vs %d records)", len(got), len(want))
	}
	if st.Shards != cfg.Shards {
		t.Fatalf("Shards = %d, want %d", st.Shards, cfg.Shards)
	}
	var sum int64
	for _, c := range st.ShardRecords {
		sum += c
	}
	if sum != int64(len(vals)) || st.Records != int64(len(vals)) {
		t.Fatalf("ShardRecords sum = %d, Records = %d, want %d", sum, st.Records, len(vals))
	}
}

func TestShardedEmpty(t *testing.T) {
	got, _ := runSharded(t, nil, shardedCfg(4, 100), recOps())
	if len(got) != 0 {
		t.Fatalf("sorted %d records from empty input", len(got))
	}
}

func TestShardedFitsInMemory(t *testing.T) {
	// 80 records against a 100-record budget: the sample swallows the
	// whole input and the engine must delegate to one full-budget sort.
	vals := recordDataset(gen.Random, 80)
	cfg := shardedCfg(4, 100)
	want := runUnsharded(t, vals, cfg.Extsort, recOps())
	got, st := runSharded(t, vals, cfg, recOps())
	if !slices.Equal(got, want) {
		t.Fatal("in-memory delegation output differs")
	}
	if st.Shards != 0 {
		t.Fatalf("Shards = %d for a delegated in-memory sort, want 0", st.Shards)
	}
}

func TestShardedSingleShardDelegates(t *testing.T) {
	vals := recordDataset(gen.Random, 2000)
	cfg := shardedCfg(1, 200)
	want := runUnsharded(t, vals, cfg.Extsort, recOps())
	got, st := runSharded(t, vals, cfg, recOps())
	if !slices.Equal(got, want) {
		t.Fatal("single-shard output differs")
	}
	if st.Shards != 0 {
		t.Fatalf("Shards = %d for shards=1, want 0 (plain sort)", st.Shards)
	}
}

func TestShardedRejectsBadMemory(t *testing.T) {
	var out stream.SliceWriter[record.Record]
	_, err := Sort[record.Record](stream.NewSliceReader(recordDataset(gen.Random, 10)), &out,
		vfs.NewMemFS(), Config{Shards: 2}, recOps())
	if err == nil || !strings.Contains(err.Error(), "memory") {
		t.Fatalf("err = %v, want memory validation error", err)
	}
}

func TestShardedDurableNeedsExplicitShards(t *testing.T) {
	cfg := Config{Extsort: extsort.Config{Memory: 100, Manifest: true}}
	var out stream.SliceWriter[record.Record]
	_, err := Sort[record.Record](stream.NewSliceReader(recordDataset(gen.Random, 10)), &out,
		vfs.NewMemFS(), cfg, recOps())
	if err == nil || !strings.Contains(err.Error(), "explicit shard count") {
		t.Fatalf("err = %v, want explicit shard count error", err)
	}
}

func TestShardedStatsAndPhases(t *testing.T) {
	vals := recordDataset(gen.Random, 6000)
	_, st := runSharded(t, vals, shardedCfg(4, 500), recOps())
	if st.Runs <= 0 || st.AvgRunLength <= 0 {
		t.Fatalf("Runs = %d, AvgRunLength = %v", st.Runs, st.AvgRunLength)
	}
	if len(st.Phases) != 2 || st.Phases[0].Name != "partition" || st.Phases[1].Name != "merge" {
		t.Fatalf("Phases = %+v, want partition then merge", st.Phases)
	}
	if got := st.Phases[0].Wall + st.Phases[1].Wall; got > st.Elapsed {
		t.Fatalf("phase sum %v exceeds Elapsed %v", got, st.Elapsed)
	}
	if !st.Keyed {
		t.Fatal("record sort with KeyRecord16 should report Keyed")
	}
}

// TestAddIOSumsEveryField sets every IOStats field to a distinct value and
// aggregates two such shards: each field must come out doubled, so a field
// added to IOStats and forgotten in addIO reads zero here.
func TestAddIOSumsEveryField(t *testing.T) {
	var shard extsort.IOStats
	v := reflect.ValueOf(&shard).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	var sum extsort.IOStats
	addIO(&sum, shard)
	addIO(&sum, shard)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if want := 2 * int64(i+1); got.Field(i).Int() != want {
			t.Errorf("two shards sum %s to %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
}

func TestShardedTracingAndMetrics(t *testing.T) {
	tr := obs.New()
	reg := obs.NewRegistry()
	cfg := shardedCfg(4, 500)
	cfg.Extsort.Trace = tr
	cfg.Extsort.Metrics = reg
	vals := recordDataset(gen.Random, 6000)
	_, st := runSharded(t, vals, cfg, recOps())

	spans := tr.Spans()
	var partition, shardSpans int
	for _, sp := range spans {
		switch sp.Track {
		case "shard_partition":
			partition++
		case "shard_sort":
			shardSpans++
		}
	}
	if partition != 1 {
		t.Fatalf("shard_partition spans = %d, want 1", partition)
	}
	if shardSpans != cfg.Shards {
		t.Fatalf("shard_sort spans = %d, want %d", shardSpans, cfg.Shards)
	}
	if got := reg.Counter(obs.MShards, "").Value(); got != int64(cfg.Shards) {
		t.Fatalf("%s = %d, want %d", obs.MShards, got, cfg.Shards)
	}
	if got := reg.Counter(obs.MRecordsIn, "").Value(); got != st.Records {
		t.Fatalf("%s = %d, want %d", obs.MRecordsIn, got, st.Records)
	}
}

// failReader errors after yielding a fixed number of elements.
type failReader struct {
	vals []record.Record
	pos  int
}

var errSrcBroken = errors.New("distsort_test: source broken")

func (f *failReader) Read() (record.Record, error) {
	if f.pos >= len(f.vals) {
		return record.Record{}, errSrcBroken
	}
	v := f.vals[f.pos]
	f.pos++
	return v, nil
}

func TestShardedSourceErrorPropagates(t *testing.T) {
	vals := recordDataset(gen.Random, 4000)
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	_, err := Sort[record.Record](&failReader{vals: vals}, &out, fs,
		shardedCfg(4, 500), recOps())
	if !errors.Is(err, errSrcBroken) {
		t.Fatalf("err = %v, want errSrcBroken", err)
	}
	assertEmpty(t, fs)
}

// assertEmpty fails unless a failed non-durable sort left fs empty: every
// shard, whether it failed, was aborted or had its merge stream open,
// removes its spill files.
func assertEmpty(t *testing.T, fs *vfs.MemFS) {
	t.Helper()
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("leftover temp files after failed sort: %v", names)
	}
}

func TestShardedCancel(t *testing.T) {
	vals := recordDataset(gen.Random, 6000)
	var calls atomic.Int64 // Cancel is polled by the partition loop and every shard
	errCancelled := errors.New("distsort_test: cancelled")
	cfg := shardedCfg(4, 500)
	cfg.Extsort.Cancel = func() error {
		if calls.Add(1) > 3 {
			return errCancelled
		}
		return nil
	}
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	_, err := Sort[record.Record](stream.NewSliceReader(vals), &out, fs, cfg, recOps())
	if !errors.Is(err, errCancelled) {
		t.Fatalf("err = %v, want errCancelled", err)
	}
	assertEmpty(t, fs)
}

// failWriter fails after accepting a fixed number of elements, exercising
// the drain error path while later shards are still merging.
type failWriter struct {
	n     int
	limit int
}

var errDstBroken = errors.New("distsort_test: destination broken")

func (w *failWriter) Write(record.Record) error {
	w.n++
	if w.n > w.limit {
		return errDstBroken
	}
	return nil
}

func TestShardedDestinationErrorPropagates(t *testing.T) {
	vals := recordDataset(gen.Random, 6000)
	fs := vfs.NewMemFS()
	_, err := Sort[record.Record](stream.NewSliceReader(vals), &failWriter{limit: 100},
		fs, shardedCfg(4, 500), recOps())
	if !errors.Is(err, errDstBroken) {
		t.Fatalf("err = %v, want errDstBroken", err)
	}
	assertEmpty(t, fs)
}

// TestShardedMisroutedBoundaryFails swaps the ranges of the first two shards
// in the router: each shard still sorts what it gets, so only the boundary
// between them is out of order, and the concatenation must fail with
// runio.ErrOutOfOrder instead of writing a misordered output, leaving
// nothing behind.
func TestShardedMisroutedBoundaryFails(t *testing.T) {
	vals := recordDataset(gen.Random, 6000)
	cfg := shardedCfg(4, 500)
	cfg.Extsort = cfg.Extsort.Resolved()
	rt, err := newRouter(slices.Clone(vals[:500]), 4, recOps().Less, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.gap[0] != 0 || rt.gap[1] != 1 {
		t.Fatalf("router gaps %v: the fixture needs distinct first splitters", rt.gap)
	}
	rt.gap[0], rt.gap[1] = 1, 0
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	_, err = shardedSort(time.Now(), nil, stream.NewSliceReader(vals), &out, fs, cfg, recOps(), 4, rt)
	if !errors.Is(err, runio.ErrOutOfOrder) {
		t.Fatalf("err = %v, want runio.ErrOutOfOrder", err)
	}
	assertEmpty(t, fs)
}

// TestShardedSpillHygiene checks that a successful sharded sort leaves the
// temp file system empty: every shard's spill files and manifests are
// consumed or removed.
func TestShardedSpillHygiene(t *testing.T) {
	fs := vfs.NewMemFS()
	vals := recordDataset(gen.Random, 6000)
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &out, fs,
		shardedCfg(4, 500), recOps()); err != nil {
		t.Fatalf("Sort: %v", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("leftover temp files after successful sort: %v", names)
	}
}

// TestShardedLargeBatchReader checks the engine against a source that
// implements ReadBatch, covering the batched partition path end to end.
func TestShardedLargeBatchReader(t *testing.T) {
	vals := recordDataset(gen.MixedBalanced, 20000)
	cfg := shardedCfg(8, 1000)
	want := runUnsharded(t, vals, cfg.Extsort, recOps())
	got, st := runSharded(t, vals, cfg, recOps())
	if !slices.Equal(got, want) {
		t.Fatal("sharded output differs from unsharded")
	}
	if st.Shards != 8 || len(st.ShardRecords) != 8 {
		t.Fatalf("Shards = %d, ShardRecords = %v", st.Shards, st.ShardRecords)
	}
}
