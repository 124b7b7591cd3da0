package distsort

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// durableShardedCfg is the durable template every crash test uses: the
// paper's policy and an explicit shard count (required by durable sharded
// sorts).
func durableShardedCfg(shards, memory int) Config {
	return Config{
		Shards:  shards,
		Extsort: extsort.Config{Policy: policy.TwoWayRS, Memory: memory, Manifest: true},
	}
}

// TestShardedResumeCrashMatrix extends the driver's TestResumeCrashMatrix
// one layer up: kill a durable sharded sort at random points of its real
// write stream — mid-shard, mid-merge, before or after individual shard
// manifests commit — then Resume over the surviving file system. The
// resumed output must be byte-identical to an uninterrupted run, and
// across the matrix at least one resume must have recovered manifest runs
// from completed shard state rather than regenerating everything.
func TestShardedResumeCrashMatrix(t *testing.T) {
	const shards, memory, n = 4, 192, 4800
	vals := recordDataset(gen.Random, n)
	cfg := durableShardedCfg(shards, memory)

	// Uninterrupted durable baseline.
	base := vfs.NewMemFS()
	var ref stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &ref, base, cfg, recOps()); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := ref.Vals

	// Probe pass: measure the full write stream so kill points cover
	// generation, merge and manifest traffic of every shard. span is what
	// the stream measured when the matrix was written; it only names the
	// subtests (a manifest record that grows a field must not rename them),
	// the kill itself is the same fraction of the live total.
	const span = 183665
	probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	var sink stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &sink, probe, cfg, recOps()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	total := probe.Written()
	if total <= 0 {
		t.Fatalf("probe wrote %d bytes", total)
	}

	recoveredTotal := 0
	rng := rand.New(rand.NewSource(17))
	kills := 6
	if testing.Short() {
		kills = 3
	}
	for i := 0; i < kills; i++ {
		label := rng.Int63n(span)
		kill := 1 + label*total/span // in [1, total]
		torn := i%2 == 0
		t.Run(fmt.Sprintf("kill_%d_torn_%v", 1+label, torn), func(t *testing.T) {
			surviving := vfs.NewMemFS()
			cfs := faultfs.New(surviving, faultfs.Options{FailAfterBytes: kill, FailAfterOps: -1, Torn: torn})
			var out stream.SliceWriter[record.Record]
			_, err := Sort[record.Record](stream.NewSliceReader(vals), &out, cfs, cfg, recOps())
			if err == nil {
				t.Fatal("crashed pass succeeded despite exhausted write budget")
			}
			if !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("crashed pass: %v", err)
			}

			// "Restart the process": resume over the surviving base FS.
			rcfg := cfg
			rcfg.Extsort.Resume = true
			var res stream.SliceWriter[record.Record]
			st, err := Sort[record.Record](stream.NewSliceReader(vals), &res, surviving, rcfg, recOps())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !slices.Equal(res.Vals, want) {
				t.Fatalf("resumed output differs from uninterrupted sort (recovered %d runs)", st.RunsRecovered)
			}
			recoveredTotal += st.RunsRecovered

			// Resume must consume all durable state: no manifests or
			// spill files may survive a successful resumed sort.
			names, ferr := surviving.Names()
			if ferr != nil {
				t.Fatalf("Names: %v", ferr)
			}
			if len(names) != 0 {
				t.Fatalf("leftover files after resume: %v", names)
			}
		})
	}
	if recoveredTotal == 0 {
		t.Fatal("no kill point led to recovered manifest runs; matrix never exercised shard reuse")
	}
}

// TestShardedResumeMidShard pins the headline recovery property
// deterministically: crash late enough that some shards committed runs,
// then check Resume reuses them instead of regenerating from scratch.
// Under auto too: every shard's probe chooses on its own share of the
// input, and its resume repeats that choice.
func TestShardedResumeMidShard(t *testing.T) {
	for _, kind := range []policy.Kind{policy.TwoWayRS, policy.Auto} {
		t.Run(kind.String(), func(t *testing.T) { resumeMidShard(t, kind) })
	}
}

func resumeMidShard(t *testing.T, kind policy.Kind) {
	const shards, memory, n = 4, 192, 4800
	vals := recordDataset(gen.MixedBalanced, n)
	cfg := durableShardedCfg(shards, memory)
	cfg.Extsort.Policy = kind

	base := vfs.NewMemFS()
	var ref stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &ref, base, cfg, recOps()); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{FailAfterBytes: -1, FailAfterOps: -1})
	var sink stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &sink, probe, cfg, recOps()); err != nil {
		t.Fatalf("probe: %v", err)
	}

	// Kill at 70% of the write stream: well past the first committed
	// runs, before the sort finishes.
	surviving := vfs.NewMemFS()
	cfs := faultfs.New(surviving, faultfs.Options{FailAfterBytes: probe.Written() * 7 / 10, FailAfterOps: -1})
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &out, cfs, cfg, recOps()); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("crashed pass: %v", err)
	}

	// The crash must have left at least one per-shard manifest behind.
	names, err := surviving.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	manifests := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".manifest") && strings.Contains(name, "-s") {
			manifests++
		}
	}
	if manifests == 0 {
		t.Fatalf("no per-shard manifest survived the crash: %v", names)
	}

	rcfg := cfg
	rcfg.Extsort.Resume = true
	var res stream.SliceWriter[record.Record]
	st, err := Sort[record.Record](stream.NewSliceReader(vals), &res, surviving, rcfg, recOps())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st.RunsRecovered == 0 {
		t.Fatal("resume regenerated everything; expected recovered shard runs")
	}
	if !slices.Equal(res.Vals, ref.Vals) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
}

// TestShardedDurableCleanRun checks that an uninterrupted durable sharded
// sort consumes all its own manifests and spill files.
func TestShardedDurableCleanRun(t *testing.T) {
	vals := recordDataset(gen.Random, 4000)
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &out, fs,
		durableShardedCfg(4, 200), recOps()); err != nil {
		t.Fatalf("Sort: %v", err)
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatalf("Names: %v", err)
	}
	if len(names) != 0 {
		t.Fatalf("durable sort left files behind: %v", names)
	}
}

// TestShardedResumeCommittedShard resumes over a file system on which one
// shard's manifest is already committed while the others never started.
// That shard adopts its runs without reading its feed, yet the partition
// loop still routes it a share several times feedDepth×feedBatch: unless
// the shard discards the feed, the loop blocks on it and the sort hangs.
func TestShardedResumeCommittedShard(t *testing.T) {
	const shards, memory = 4, 192
	const n = shards * 3 * feedDepth * feedBatch
	vals := recordDataset(gen.Random, n)
	cfg := durableShardedCfg(shards, memory)
	cfg.Extsort = cfg.Extsort.Resolved() // as Sort does, for newRouter and shardConfig below

	var ref stream.SliceWriter[record.Record]
	if _, err := Sort[record.Record](stream.NewSliceReader(vals), &ref, vfs.NewMemFS(), cfg, recOps()); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Route the input the way Sort will and run shard 0's durable
	// generation alone: a committed manifest and its runs, nothing merged.
	sample, _, err := stream.ReadPrefix[record.Record](stream.NewSliceReader(vals), nil, memory+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := newRouter(sample, shards, recOps().Less, cfg.Extsort.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	var share []record.Record
	for _, v := range vals {
		if rt.route(v) == 0 {
			share = append(share, v)
		}
	}
	if len(share) <= (feedDepth+2)*feedBatch {
		t.Fatalf("shard 0 receives %d records, too few to fill its feed", len(share))
	}
	fs := vfs.NewMemFS()
	if _, err := extsort.GenerateRuns(stream.NewSliceReader(share), fs, shardConfig(cfg, shards, 0), recOps()); err != nil {
		t.Fatalf("shard 0 generation: %v", err)
	}

	rcfg := cfg
	rcfg.Extsort.Resume = true
	var res stream.SliceWriter[record.Record]
	var st extsort.Stats
	done := make(chan error, 1)
	go func() {
		var err error
		st, err = Sort[record.Record](stream.NewSliceReader(vals), &res, fs, rcfg, recOps())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("resume deadlocked: the partition loop is blocked on the committed shard's unread feed")
	}
	if st.RunsRecovered == 0 {
		t.Fatal("resume regenerated shard 0; expected its committed runs to be adopted")
	}
	if !slices.Equal(res.Vals, ref.Vals) {
		t.Fatal("resumed output differs from uninterrupted sort")
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("leftover files after resume: %v", names)
	}
}
