package repro

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/manifest"
	"repro/internal/vfs"
)

// settledGoroutines waits briefly for goroutines that are on their way out
// and returns how many are left.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// cancelSink cancels its context after ok records and fails from then on,
// as a consumer whose context ended mid-merge sees it.
type cancelSink struct {
	ok     int
	cancel context.CancelFunc
}

func (c *cancelSink) Write(Record) error {
	if c.ok == 0 {
		c.cancel()
		return context.Canceled
	}
	c.ok--
	return nil
}

// TestFinalMergeEarlyExitsLeaveNoGoroutine leaves the final merge, its tree
// on a producer goroutine, part way through: a context cancelled mid-merge,
// a sink that fails and a TopK that has what it came for. None leaves a
// goroutine of the merge behind, and a durable sort that failed keeps its
// committed manifest: Resume adopts every run and writes the sorted input.
func TestFinalMergeEarlyExitsLeaveNoGoroutine(t *testing.T) {
	recs := shuffledRecords(60000, 4)
	less := func(a, b Record) bool { return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux }
	want := slices.Clone(recs)
	slices.SortFunc(want, func(a, b Record) int { return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Aux, b.Aux)) })
	for _, par := range []int{2, 4} {
		before := runtime.NumGoroutine()
		for _, exit := range []string{"cancel", "sink", "topk"} {
			fs := vfs.NewMemFS()
			s, err := New(less, WithMemoryRecords(4096), WithPolicy("quick"), WithManifest(), WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			s.fs = fs
			ctx, cancel := context.WithCancel(context.Background())
			switch exit {
			case "cancel":
				_, err = s.Sort(ctx, &dyingSource{recs: recs, dieAt: len(recs) + 1}, &cancelSink{ok: 30000, cancel: cancel})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("parallelism %d, %s: Sort = %v, want the cancellation", par, exit, err)
				}
			case "sink":
				_, err = s.Sort(ctx, &dyingSource{recs: recs, dieAt: len(recs) + 1}, &brokenSink{ok: 30000})
				if !errors.Is(err, errSinkBroke) {
					t.Fatalf("parallelism %d, %s: Sort = %v, want the sink's error", par, exit, err)
				}
			case "topk":
				var top sliceSink[Record]
				if _, err = s.TopK(ctx, &dyingSource{recs: recs, dieAt: len(recs) + 1}, 20000, &top); err != nil {
					t.Fatalf("parallelism %d, %s: %v", par, exit, err)
				}
				if !slices.Equal(top.vals, want[:20000]) {
					t.Fatalf("parallelism %d, %s: TopK returned %d records, not the 20000 least", par, exit, len(top.vals))
				}
			}
			cancel()
			if n := settledGoroutines(before); n > before {
				t.Fatalf("parallelism %d, %s: %d goroutines after the sort, %d before", par, exit, n, before)
			}
			if exit == "topk" {
				if names, _ := fs.Names(); len(names) != 0 {
					t.Fatalf("parallelism %d, %s: the abandoned merge left %v", par, exit, names)
				}
				continue
			}
			st, err := manifest.Load(fs, manifest.Name("sort"))
			if err != nil || !st.Committed {
				t.Fatalf("parallelism %d, %s: the failed merge left %+v: %v, want the committed manifest", par, exit, st, err)
			}
			var out sliceSink[Record]
			stats, err := s.Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
			if err != nil || stats.RunsRecovered != len(st.Runs) || !slices.Equal(out.vals, want) {
				t.Fatalf("parallelism %d, %s: Resume recovered %d of %d runs, sorted %v: %v", par, exit, stats.RunsRecovered, len(st.Runs), slices.Equal(out.vals, want), err)
			}
		}
	}
}

// TestFinalMergeCompositeKeyEveryParallelism sorts under a composite key
// codec, whose bulk prefix function keeps scratch of its own, at
// Parallelism 1, 2 and 4: the final merge's producer goroutine caches the
// words of every batch with the tree's own function, so the output is the
// same sorted order at every setting (run it under -race).
func TestFinalMergeCompositeKeyEveryParallelism(t *testing.T) {
	less := func(a, b opaquePair) bool { return a.Hi < b.Hi || a.Hi == b.Hi && a.Lo < b.Lo }
	kc, err := CompositeKeyCodec[opaquePair](8, true,
		func(buf []byte, v opaquePair) []byte { return binary.BigEndian.AppendUint32(buf, v.Hi) },
		func(buf []byte, v opaquePair) []byte { return binary.BigEndian.AppendUint32(buf, v.Lo) },
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	data := make([]opaquePair, 40_000)
	for i := range data {
		data[i] = opaquePair{Hi: rng.Uint32() % 64, Lo: rng.Uint32()}
	}
	want := slices.Clone(data)
	slices.SortFunc(want, func(a, b opaquePair) int { return cmp.Or(cmp.Compare(a.Hi, b.Hi), cmp.Compare(a.Lo, b.Lo)) })
	for _, par := range []int{1, 2, 4} {
		s, err := New(less, WithConfig(DefaultConfig(1<<11)), WithParallelism(par), WithPolicy("quick"),
			WithCodec[opaquePair](opaquePairCodec{}), WithKeyCodec(kc))
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := s.SortSlice(context.Background(), data)
		if err != nil || !st.Keyed || !slices.Equal(out, want) {
			t.Fatalf("parallelism %d: keyed %v, sorted %v: %v", par, st.Keyed, slices.Equal(out, want), err)
		}
	}
}
