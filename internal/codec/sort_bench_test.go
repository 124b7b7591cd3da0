package codec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/record"
)

// BenchmarkKeySorter is KeySorter over Record batches at the sizes the run
// generators sort — the victim buffer at memory 2^14 (164) and 2^16 (655),
// spill_merge's load (2^14), and loads of 2^16 and the default 2^20 — with
// keys drawn from n × 1000 values, distinct (one from each thousand) and
// repeated (multiples of 1000 below n × 1000, so about a third of the
// records share a key), keyed by KeyRecord16 and comparator-only. Every
// iteration is held to the oracle, a stable sort under the comparator,
// outside the timed region.
func BenchmarkKeySorter(b *testing.B) {
	for _, n := range []int{164, 655, 1 << 14, 1 << 16, 1 << 20} {
		for _, keys := range []string{"distinct", "repeated"} {
			rng := rand.New(rand.NewSource(int64(n)))
			in := make([]record.Record, n)
			for i, p := range rng.Perm(n) {
				key := int64(p)*1000 + rng.Int63n(1000)
				if keys == "repeated" {
					key = rng.Int63n(int64(n)) * 1000
				}
				in[i] = record.Record{Key: key, Aux: uint64(i)}
			}
			want := stableSorted(in, record.Less)
			for _, mode := range []string{"keyed", "comparator"} {
				var kc KeyCodec[record.Record]
				if mode == "keyed" {
					kc = KeyRecord16{}
				}
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, keys, mode), func(b *testing.B) {
					s := NewKeySorter(kc, record.Less)
					buf := make([]record.Record, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(buf, in)
						b.StartTimer()
						s.Sort(buf)
						b.StopTimer()
						if !slices.Equal(buf, want) {
							b.Fatal("the sorted batch is not the comparator's stable sort")
						}
						b.StartTimer()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rec")
				})
			}
		}
	}
}
