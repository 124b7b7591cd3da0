package core

import (
	"testing"
	"testing/quick"

	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestQuickArbitraryInputsProduceValidRuns drives 2WRS with adversarial
// machine-generated key sequences (testing/quick): whatever the input, the
// runs must be sorted streams that partition it exactly.
func TestQuickArbitraryInputsProduceValidRuns(t *testing.T) {
	check := func(keys []int64, memSel uint8, inSel, outSel, setupSel uint8) bool {
		recs := make([]record.Record, len(keys))
		for i, k := range keys {
			recs[i] = record.Record{Key: k, Aux: uint64(i)}
		}
		cfg := Config{
			Memory:     8 + int(memSel)%120,
			Setup:      BufferSetups[int(setupSel)%len(BufferSetups)],
			BufferFrac: 0.1,
			Input:      InputHeuristics[int(inSel)%len(InputHeuristics)],
			Output:     OutputHeuristics[int(outSel)%len(OutputHeuristics)],
			Seed:       int64(memSel),
		}
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "q")
		em.PageSize = 64
		em.PagesPerFile = 4
		res, err := generate(stream.NewSliceReader(recs), em, cfg, record.Key)
		if err != nil {
			t.Logf("generate failed: %v", err)
			return false
		}
		union := make(record.Multiset)
		for _, run := range res.Runs {
			got, err := readRun(fs, run, 512)
			if err != nil {
				t.Logf("read failed: %v", err)
				return false
			}
			if !record.IsSorted(got) {
				t.Logf("run not sorted")
				return false
			}
			if int64(len(got)) != run.Records {
				t.Logf("manifest mismatch")
				return false
			}
			for _, r := range got {
				union[r]++
			}
		}
		return union.Equal(record.NewMultiset(recs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
