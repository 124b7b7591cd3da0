package repro

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"io"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/merge"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestReaderContract holds every reader of the library — each non-test type
// under internal/ or in the root package that declares ReadBatch — to the
// stream.BatchReader contract: an empty dst reads nothing and returns
// (0, nil) before, during and after the end; batches of every short length
// deliver the stream whole, never elements and an error together; the end is
// io.EOF, again on every read after it; a failure is followed by the failure
// again, never by the end; and a reader with a Close answers ErrClosed once
// closed. A type that declares ReadBatch and has no row here fails the test.
func TestReaderContract(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i / 3) // ties, for the operators
	}
	boom := errors.New("boom")
	eq := func(a, b int64) bool { return a == b }
	first := func(acc, _ int64) int64 { return acc }
	slice := func(v []int64) stream.BatchReader[int64] { return stream.NewSliceReader(v) }
	failing := func(v []int64) stream.BatchReader[int64] { return &failingReader[int64]{vals: v, err: boom} }
	unclosed := func(r stream.BatchReader[int64]) (stream.BatchReader[int64], func() error) { return r, nil }
	// merged is a merge of vals dealt round-robin to n runs, corrupt when
	// the last run claims one record more than it holds; workers 0 is the
	// bare loser tree, otherwise a merge.Stream at that Workers setting.
	merged := func(t *testing.T, n int, corrupt bool, workers int) (stream.BatchReader[int64], func() error) {
		em, runs := spillRuns(t, vals, n, corrupt)
		if workers > 0 {
			st, err := merge.NewStream(em, runs, merge.Config{FanIn: 10, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return st, st.Close
		}
		var srcs []merge.Source[int64]
		for _, run := range runs {
			pieces, err := em.Open(run, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pieces {
				srcs = append(srcs, p)
			}
		}
		lt, err := merge.NewLoserTree(srcs, em.Less)
		if err != nil {
			t.Fatal(err)
		}
		return lt, lt.Close
	}
	ints := func(want []int64, open, fail opener[int64], failErr error) func(t *testing.T) {
		return func(t *testing.T) { checkReader(t, want, open, fail, failErr) }
	}
	distinct := slices.Compact(slices.Clone(vals))
	rows := map[string]func(t *testing.T){
		"stream.SliceReader": ints(vals, func() (stream.BatchReader[int64], func() error) { return unclosed(slice(vals)) }, nil, nil),
		"stream.readerBatcher": ints(vals,
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(stream.AsBatchReader[int64](newSliceSource(vals)))
			},
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(stream.AsBatchReader[int64](elements[int64]{failing(vals[:10])}))
			}, boom),
		"stream.Prepended": ints(vals,
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(stream.Prepend(vals[:300], slice(vals[300:])))
			},
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(stream.Prepend(vals[:300], failing(vals[300:310])))
			}, boom),
		"stream.Meter": ints(vals,
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(&stream.Meter[int64]{R: slice(vals), Add: func(int64) {}})
			},
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(&stream.Meter[int64]{R: failing(vals[:10]), Add: func(int64) {}})
			}, boom),
		"stream.FeedReader": ints(vals,
			func() (stream.BatchReader[int64], func() error) { return unclosed(feed(vals, nil)) },
			func() (stream.BatchReader[int64], func() error) { return unclosed(feed(vals[:100], boom)) }, errFeedStopped),
		"repro.ctxReader": ints(vals,
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(&ctxReader[int64]{ctx: context.Background(), br: slice(vals)})
			},
			func() (stream.BatchReader[int64], func() error) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return unclosed(&ctxReader[int64]{ctx: ctx, br: slice(vals)})
			}, context.Canceled),
		"ops.Distinct": ints(distinct,
			func() (stream.BatchReader[int64], func() error) { return unclosed(ops.NewDistinct(slice(vals), eq)) },
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(ops.NewDistinct(failing(vals[:10]), eq))
			},
			boom),
		"ops.GroupBy": ints(distinct,
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(ops.NewGroupBy(slice(vals), eq, first))
			},
			func() (stream.BatchReader[int64], func() error) {
				return unclosed(ops.NewGroupBy(failing(vals[:10]), eq, first))
			}, boom),
		"record.ByteReader": func(t *testing.T) {
			recs := make([]record.Record, 300)
			enc := make([]byte, len(recs)*record.Size)
			for i := range recs {
				recs[i] = record.Record{Key: int64(i), Aux: uint64(i)}
				record.Encode(enc[i*record.Size:], recs[i])
			}
			checkReader(t, recs,
				func() (stream.BatchReader[record.Record], func() error) {
					return record.NewByteReader(bytes.NewReader(enc)), nil
				},
				func() (stream.BatchReader[record.Record], func() error) {
					return record.NewByteReader(io.MultiReader(bytes.NewReader(enc[:10*record.Size]), failingBytes{boom})), nil
				}, boom)
		},
		"runio.Reader": func(t *testing.T) {
			piece := func(t *testing.T, corrupt bool) (stream.BatchReader[int64], func() error) {
				em, runs := spillRuns(t, vals, 1, corrupt)
				pieces, err := em.Open(runs[0], 64)
				if err != nil {
					t.Fatal(err)
				}
				return pieces[0], pieces[0].Close
			}
			checkReader(t, vals,
				func() (stream.BatchReader[int64], func() error) { return piece(t, false) },
				func() (stream.BatchReader[int64], func() error) { return piece(t, true) },
				storage.ErrCorrupt)
		},
	}
	// The merges, of four runs and of none: the bare tree, and the Stream
	// over it at one worker and over the tree's producer goroutine, the
	// pipe, which is read through the Stream that owns it, at two.
	for name, workers := range map[string]int{"merge.LoserTree": 0, "merge.Stream": 1, "merge.pipe": 2} {
		rows[name] = func(t *testing.T) {
			checkReader(t, vals,
				func() (stream.BatchReader[int64], func() error) { return merged(t, 4, false, workers) },
				func() (stream.BatchReader[int64], func() error) { return merged(t, 4, true, workers) },
				storage.ErrCorrupt)
			checkReader(t, nil, func() (stream.BatchReader[int64], func() error) { return merged(t, 0, false, workers) }, nil, nil)
		}
	}
	for _, name := range methods(t, "ReadBatch", func(*ast.FuncType) bool { return true }, "internal", ".") {
		row, ok := rows[name]
		if !ok {
			t.Errorf("%s declares ReadBatch and has no row in the reader contract's table", name)
			continue
		}
		t.Run(name, row)
	}
}

// opener returns a fresh reader and its Close, nil when it has none.
type opener[T any] func() (stream.BatchReader[T], func() error)

// checkReader holds the reader open returns to the contract, reading want
// through batches of every length from one to seven with an empty read
// between them; fail, when not nil, opens a reader that fails with an error
// matching failErr part way.
func checkReader[T comparable](t *testing.T, want []T, open, fail opener[T], failErr error) {
	t.Helper()
	empty := func(r stream.BatchReader[T], when string) {
		if n, err := r.ReadBatch(nil); n != 0 || err != nil {
			t.Errorf("an empty read %s = (%d, %v), want (0, nil)", when, n, err)
		}
	}
	r, closer := open()
	empty(r, "before the first read")
	buf := make([]T, 7)
	var got []T
	for k := 1; ; k = k%len(buf) + 1 {
		n, err := r.ReadBatch(buf[:k])
		if n > 0 && err != nil || n > k {
			t.Fatalf("a read of %d = (%d, %v)", k, n, err)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil || n == 0 {
			t.Fatalf("a read of %d after %d elements = (%d, %v)", k, len(got), n, err)
		}
		empty(r, "mid-stream")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("read %d elements, not the %d of the stream", len(got), len(want))
	}
	empty(r, "after the end")
	for range 2 {
		if n, err := r.ReadBatch(buf); n != 0 || err != io.EOF {
			t.Errorf("a read after the end = (%d, %v), want (0, io.EOF)", n, err)
		}
	}
	if closer != nil {
		if err := closer(); err != nil {
			t.Fatal(err)
		}
		if n, err := r.ReadBatch(buf); n != 0 || !errors.Is(err, stream.ErrClosed) {
			t.Errorf("a read after Close = (%d, %v), want ErrClosed", n, err)
		}
	}
	if fail == nil {
		return
	}
	r, closer = fail()
	var err error
	for read := 0; err == nil; {
		var n int
		if n, err = r.ReadBatch(buf); n > 0 && err != nil || n == 0 && err == nil {
			t.Fatalf("a read after %d elements of the failing stream = (%d, %v)", read, n, err)
		}
		read += n
	}
	if !errors.Is(err, failErr) {
		t.Fatalf("the failing reader ended with %v, want %v", err, failErr)
	}
	for range 2 {
		if n, err := r.ReadBatch(buf); n != 0 || !errors.Is(err, failErr) {
			t.Errorf("a read after the failure = (%d, %v), want (0, %v)", n, err, failErr)
		}
	}
	if n, err := r.ReadBatch(nil); n != 0 || err == io.EOF {
		t.Errorf("an empty read after the failure = (%d, %v), want no end", n, err)
	}
	if closer != nil {
		closer()
	}
}

// spillRuns writes vals dealt round-robin to runs ascending runs of int64
// on a memory file system and returns them with their emitter. corrupt
// makes the last run claim a record more than it holds.
func spillRuns(t *testing.T, vals []int64, runs int, corrupt bool) (*runio.Emitter[int64], []runio.Run) {
	t.Helper()
	em := runio.NewEmitter[int64](vfs.NewMemFS(), "rc", codec.Int64{}, func(a, b int64) bool { return a < b })
	out := make([]runio.Run, runs)
	for i := range out {
		var part []int64
		for j := i; j < len(vals); j += runs {
			part = append(part, vals[j])
		}
		w, err := em.Stream("run", false)
		if err == nil {
			err = w.WriteBatch(part)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		out[i] = runio.SingleRun(w.Segment())
	}
	if corrupt && runs > 0 {
		out[runs-1].Segments[0].Records++
		out[runs-1].Records++
	}
	return em, out
}

var errFeedStopped = errors.New("feed stopped")

// feed deals vals in blocks of 64 to the one reader of a feed from a
// producer goroutine, which then closes the feed or, given a failure, stops
// it.
func feed(vals []int64, failure error) *stream.FeedReader[int64] {
	f := stream.NewFeed[int64](1, 2, 64, errFeedStopped)
	go func() {
		for rest := vals; len(rest) > 0; {
			blk, err := f.Block(0)
			if err != nil {
				return
			}
			n := min(64, len(rest))
			f.Deal(0, append(blk, rest[:n]...))
			rest = rest[n:]
		}
		if failure != nil {
			f.Stop(failure)
		} else {
			f.Close()
		}
	}()
	return f.Reader(0, nil)
}

// failingReader serves vals, then fails with err on every read.
type failingReader[T any] struct {
	vals []T
	err  error
}

func (f *failingReader[T]) ReadBatch(dst []T) (int, error) {
	if len(f.vals) == 0 {
		return 0, f.err
	}
	n := copy(dst, f.vals)
	f.vals = f.vals[n:]
	return n, nil
}

// elements is a caller's element-at-a-time source over a batch reader.
type elements[T any] struct{ br stream.BatchReader[T] }

func (e elements[T]) Read() (T, error) {
	var v [1]T
	_, err := e.br.ReadBatch(v[:])
	return v[0], err
}

// failingBytes fails every read with err.
type failingBytes struct{ err error }

func (f failingBytes) Read([]byte) (int, error) { return 0, f.err }
