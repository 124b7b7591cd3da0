package runio

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// captureBackend keeps the bytes of the one run written to it — the blocks
// of a forward file, or the pages, tails and headers of a chain in the order
// they are stored — in a buffer allocated once.
type captureBackend struct {
	storage.Backend
	got []byte
}

func (c *captureBackend) Create(string) (storage.BlockWriter, error) { return c, nil }
func (c *captureBackend) CreatePaged(string, int, int) (storage.PageWriter, error) {
	return c, nil
}
func (c *captureBackend) Append(p []byte) error           { c.got = append(c.got, p...); return nil }
func (c *captureBackend) WritePage(_ int, p []byte) error { return c.Append(p) }
func (c *captureBackend) WriteHeader(p []byte) error      { return c.Append(p) }
func (c *captureBackend) WriteTail(_ int, p []byte) (int, error) {
	return 0, c.Append(p)
}
func (c *captureBackend) Close() error { return nil }

const benchRecords = 1 << 18

func benchInput() []record.Record {
	recs := make([]record.Record, benchRecords)
	for i := range recs {
		recs[i] = record.Record{Key: int64(i / 3), Aux: uint64(i) * 0x9e3779b97f4a7c15}
	}
	return recs
}

// BenchmarkWriterBatch times a forward run written through WriteBatch a
// batch per call (the bulk encode kernel, a page per call) beside the same
// run written one element per call, and the same records written descending
// to a backward chain both ways: batches, which it encodes a page per bulk
// call tail-first into the block, and one element per call. Every iteration
// is held to the bytes of its layout's one-element writes.
func BenchmarkWriterBatch(b *testing.B) {
	recs := benchInput()
	descending := slices.Clone(recs)
	slices.Reverse(descending)
	st := &captureBackend{got: make([]byte, 0, benchRecords*record.Size+benchRecords)}
	write := func(chain, batch bool) {
		var w StreamWriter[record.Record]
		var err error
		src := recs
		if chain {
			src = descending
			w, err = NewBackwardWriter[record.Record](st, "run", 0, 0, codec.Record16{}, record.Less)
		} else {
			w, err = NewWriter[record.Record](st, "run", 0, codec.Record16{}, record.Less)
		}
		if err != nil {
			b.Fatal(err)
		}
		st.got = st.got[:0]
		if batch {
			for rest := src; len(rest) > 0 && err == nil; {
				n := min(len(rest), stream.DefaultBatchLen)
				err, rest = w.WriteBatch(rest[:n]), rest[n:]
			}
		} else {
			for i := 0; i < len(src) && err == nil; i++ {
				err = w.WriteBatch(src[i : i+1])
			}
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, mode := range []struct {
		name         string
		chain, batch bool
	}{{"batch", false, true}, {"one", false, false}, {"chain", true, true}, {"chain-one", true, false}} {
		write(mode.chain, false)
		want := bytes.Clone(st.got)
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			for i := 0; i < b.N; i++ {
				write(mode.chain, mode.batch)
				b.StopTimer()
				if !bytes.Equal(st.got, want) {
					b.Fatalf("%s writes stored %d bytes that differ from one-element batches' %d", mode.name, len(st.got), len(want))
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReaderBatch times a forward run read back through ReadBatch a
// full batch per call (the bulk decode kernel, a buffer per call) beside one
// element per call, and holds every iteration to the elements written.
func BenchmarkReaderBatch(b *testing.B) {
	recs := benchInput()
	st := storage.NewRaw(vfs.NewMemFS())
	w, err := NewWriter[record.Record](st, "run", 0, codec.Record16{}, record.Less)
	if err == nil {
		if err = w.WriteBatch(recs); err == nil {
			err = w.Close()
		}
	}
	if err != nil {
		b.Fatal(err)
	}
	got := make([]record.Record, 0, len(recs)+stream.DefaultBatchLen)
	read := func(batchLen int) {
		r, err := NewReader[record.Record](st, "run", 64<<10, codec.Record16{})
		if err != nil {
			b.Fatal(err)
		}
		got = got[:0]
		for err == nil {
			var n int
			n, err = r.ReadBatch(got[len(got) : len(got)+batchLen])
			if got = got[:len(got)+n]; len(got) > len(recs) {
				b.Fatalf("read %d elements of a run of %d", len(got), len(recs))
			}
		}
		if err != io.EOF {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	read(1)
	want := slices.Clone(got)
	if !slices.Equal(want, recs) {
		b.Fatal("batches of one do not return what was written")
	}
	for _, mode := range []struct {
		name  string
		batch int
	}{{"batch", stream.DefaultBatchLen}, {"one", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(recs) * record.Size))
			for i := 0; i < b.N; i++ {
				read(mode.batch)
				b.StopTimer()
				if !slices.Equal(got, want) {
					b.Fatalf("%s reads returned %d elements that differ from the element path's %d", mode.name, len(got), len(want))
				}
				b.StartTimer()
			}
		})
	}
}
