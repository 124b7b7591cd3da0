package repro

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"
)

// shardDataset builds records whose payload is a pure function of the key,
// so comparator-equal records are bitwise identical and the sharded sort's
// byte-identity guarantee applies.
func shardDataset(n int, seed int64) []Record {
	recs := shuffledRecords(n, seed)
	for i := range recs {
		recs[i].Aux = uint64(recs[i].Key) * 0x9E3779B97F4A7C15
	}
	return recs
}

// TestWithShardsEquivalence pins the public contract: a sharded Sorter
// produces byte-for-byte the output of the single-stream one.
func TestWithShardsEquivalence(t *testing.T) {
	recs := shardDataset(6000, 5)
	less := func(a, b Record) bool { return a.Key < b.Key }
	base, err := New(less, WithMemoryRecords(300))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := base.SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 8} {
		sharded, err := New(less, WithMemoryRecords(300), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := sharded.SortSlice(context.Background(), recs)
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d shards: output differs from single-stream sort", shards)
		}
		if stats.Shards != shards {
			t.Fatalf("%d shards: Stats.Shards = %d", shards, stats.Shards)
		}
		if len(stats.ShardRecords) != shards {
			t.Fatalf("%d shards: ShardRecords %v", shards, stats.ShardRecords)
		}
	}
}

// TestWithShardsSingleStream checks that 0 and 1 keep the ordinary sort.
func TestWithShardsSingleStream(t *testing.T) {
	recs := shardDataset(1500, 6)
	for _, shards := range []int{0, 1} {
		s, err := New(func(a, b Record) bool { return a.Key < b.Key },
			WithMemoryRecords(300), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := s.SortSlice(context.Background(), recs)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(got, func(a, b Record) int {
			switch {
			case a.Key < b.Key:
				return -1
			case a.Key > b.Key:
				return 1
			}
			return 0
		}) {
			t.Fatal("output not sorted")
		}
		if stats.Shards != 0 {
			t.Fatalf("WithShards(%d): Stats.Shards = %d, want 0", shards, stats.Shards)
		}
	}
}

// TestWithShardsProgress checks that a sharded sort reports progress as a
// single-stream one does: a line per tick naming the phase, partition or
// merge, and the done line last.
func TestWithShardsProgress(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(func(a, b Record) bool { return a.Key < b.Key },
		WithMemoryRecords(1<<14), WithShards(2), WithProgress(&buf, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortSlice(context.Background(), shardDataset(400_000, 9)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("progress output %q, want phase lines and a done line", buf.String())
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, ": done in ") {
		t.Fatalf("last progress line %q, want the done line", last)
	}
	for _, l := range lines[:len(lines)-1] {
		if !strings.Contains(l, " partition ") && !strings.Contains(l, " merge ") {
			t.Fatalf("progress line %q names neither the partition nor the merge phase", l)
		}
	}
}

// TestWithShardsRejectsNegative checks option-time validation.
func TestWithShardsRejectsNegative(t *testing.T) {
	if _, err := New(func(a, b Record) bool { return a.Key < b.Key },
		WithShards(-1)); err == nil {
		t.Fatal("New accepted WithShards(-1)")
	}
	if err := (Config{Shards: -2}).Validate(); err == nil {
		t.Fatal("Validate accepted Shards: -2")
	}
}

// TestWithShardsResume runs the public durable path: a sharded durable
// Sort dies on its source, Resume finishes it, and the result matches an
// uninterrupted sharded sort byte for byte.
func TestWithShardsResume(t *testing.T) {
	recs := shardDataset(4000, 7)
	mk := func() (*Sorter[Record], error) {
		return New(func(a, b Record) bool { return a.Key < b.Key },
			WithMemoryRecords(256),
			WithPolicy("2wrs"),
			WithShards(4),
			WithManifest())
	}
	clean, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}

	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	var out sliceSink[Record]
	if _, err := s.Sort(context.Background(), &dyingSource{recs: recs, dieAt: 3000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v, want errSourceDied", err)
	}
	out.vals = nil
	stats, err := s.Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !slices.Equal(out.vals, want) {
		t.Fatal("resumed sharded output differs from uninterrupted sort")
	}
	if stats.Shards != 4 {
		t.Fatalf("Stats.Shards = %d, want 4", stats.Shards)
	}
}

// TestWithShardsCancel checks that context cancellation aborts a sharded
// sort promptly with ctx.Err().
func TestWithShardsCancel(t *testing.T) {
	recs := shardDataset(8000, 8)
	s, err := New(func(a, b Record) bool { return a.Key < b.Key },
		WithMemoryRecords(256), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	src := &cancelAfterSource{recs: recs, after: 2000, cancel: cancel}
	var out sliceSink[Record]
	if _, err := s.Sort(ctx, src, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sort after cancel: %v, want context.Canceled", err)
	}
}

// cancelAfterSource cancels its context after serving `after` records.
type cancelAfterSource struct {
	recs   []Record
	pos    int
	after  int
	cancel context.CancelFunc
}

func (c *cancelAfterSource) Read() (Record, error) {
	if c.pos == c.after {
		c.cancel()
	}
	if c.pos >= len(c.recs) {
		return Record{}, io.EOF
	}
	r := c.recs[c.pos]
	c.pos++
	return r, nil
}
