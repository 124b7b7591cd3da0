package rs

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
)

// discardStore accepts every write and keeps nothing: a run written onto it
// costs the generator's CPU and the writers' encoding, and no I/O.
type discardStore struct{ storage.Backend }

type discardFile struct{}

func (discardStore) Create(string) (storage.BlockWriter, error) { return discardFile{}, nil }
func (discardStore) CreatePaged(string, int, int) (storage.PageWriter, error) {
	return discardFile{}, nil
}

func (discardFile) Append([]byte) error                { return nil }
func (discardFile) WritePage(int, []byte) error        { return nil }
func (discardFile) WriteTail(int, []byte) (int, error) { return 0, nil }
func (discardFile) WriteHeader([]byte) error           { return nil }
func (discardFile) Close() error                       { return nil }

// BenchmarkStepperRun times the one run loop per input record in its two
// modes — up-runs only (rs), and alternating, where every other run writes
// a backward chain — at the memory the paper_structured workload uses,
// keyed as real record sorts are, over four inputs: random, where the tail
// never starts and the tree takes every record; sorted and reverse, which
// the tail streams a fetch batch at a time in whichever mode runs with the
// trend (rs on sorted, alternating on reverse after its first run); and a
// trend whose noise (64) exceeds its step (1), so the tail keeps restarting
// and going back to the tree, its worst case.
func BenchmarkStepperRun(b *testing.B) {
	const memory, n = 1 << 14, 1 << 18
	for _, input := range []struct {
		name string
		cfg  gen.Config
	}{
		{"random", gen.Config{Kind: gen.Random, N: n, Seed: 1}},
		{"sorted", gen.Config{Kind: gen.Sorted, N: n, Seed: 1, Noise: 1000}},
		{"reverse", gen.Config{Kind: gen.ReverseSorted, N: n, Seed: 1, Noise: 1000}},
		{"trend", gen.Config{Kind: gen.Sorted, N: n, Seed: 1, Step: 1, Noise: 64}},
	} {
		recs := gen.Generate(input.cfg)
		for _, mode := range []struct {
			name        string
			alternating bool
		}{{"up", false}, {"alternating", true}} {
			b.Run(input.name+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					em := runio.NewEmitterOn[record.Record](discardStore{}, "b", codec.Record16{}, record.Less)
					em.KeyCodec = codec.KeyRecord16{}
					s, err := NewStepper(stream.NewSliceReader(recs), em, memory, mode.alternating, false)
					for ok := err == nil; ok; {
						_, ok, err = s.NextRun()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
			})
		}
	}
}
