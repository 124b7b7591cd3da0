package heap_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// goldenRuns holds, per policy and input distribution, a hash of every run
// file the generator writes (names and bytes): 2WRS runs on the double
// heap, rs and alternating on the tree of losers. The kernels decide which
// record leaves next and Aux carries each record's input position, so one
// different child pick, tie break or sift-up stop anywhere shows up as a
// different byte in some run. The 2wrs hashes date from before the sift
// kernels were rewritten; the rs and alternating ones were re-recorded when
// those generators moved from the binary heap to the tree, which releases
// comparator-equal records in another order (the runs, their lengths and
// their keys are the heap's: rs.TestStepperMatchesHeapStepper). Five of
// them — rs/sorted, rs/alternating, alternating/sorted, alternating/reverse
// and alternating/alternating — were re-recorded again when presorted
// stretches began to stream through the stepper's FIFO tail: the tail
// releases comparator-equal records in arrival order, and a tail handed
// back to the tree is played in by a rebuild, whose ties fall otherwise
// than the replacements' did. Runs, lengths and keys stayed the heap's. A change to
// a kernel must reproduce these; a change to a generator's policy or tie
// order re-records them (the failure message prints the table).
var goldenRuns = map[string]uint64{
	"2wrs/sorted":             0xd81ac426a0eda9dd,
	"2wrs/reverse":            0xcfdef62e5b11bc26,
	"2wrs/alternating":        0x386b4cccc2ada424,
	"2wrs/random":             0x702f2fd4a7f5198c,
	"2wrs/mixed":              0x7d2db68c2b53f759,
	"2wrs/imbalanced":         0x83ae1e9dd83d4ee2,
	"rs/sorted":               0xf701eccd5a7f4fa2,
	"rs/reverse":              0xdcb0bd4223c7b475,
	"rs/alternating":          0xf50b54c564f6091a,
	"rs/random":               0xe66fb218a33a4de9,
	"rs/mixed":                0xf298d74baf173585,
	"rs/imbalanced":           0x8822593ce7a4dcb4,
	"alternating/sorted":      0x40f98e8e2efe1acc,
	"alternating/reverse":     0x89ed7639c9ee1c8f,
	"alternating/alternating": 0xa1de6e437591a2df,
	"alternating/random":      0x6e000391e134dfec,
	"alternating/mixed":       0x11635bf38887eaa4,
	"alternating/imbalanced":  0x1845b33068dda3ef,
}

// hashRuns generates runs over the distribution twice — the thesis's
// spread keys, and keys packed so densely that most compares tie on the
// key and fall to the tie rules — and hashes every file left on the file
// system in name order.
func hashRuns(t *testing.T, kind policy.Kind, dist gen.Kind, keyed bool) uint64 {
	t.Helper()
	const n, memory = 30000, 700
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	for _, cfg := range []gen.Config{
		{Kind: dist, N: n, Seed: 12, Noise: 1000},
		{Kind: dist, N: n, Seed: 12, Step: 1, Noise: 4, Sections: 300},
	} {
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "g")
		em.PageSize, em.PagesPerFile = 512, 8 // backward chain files are written whole
		if keyed {
			em.KeyCodec = codec.KeyRecord16{}
		}
		res, err := policy.Generate(kind, stream.NewSliceReader(gen.Generate(cfg)), em, policy.Config{Memory: memory}, record.Key)
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != n {
			t.Fatalf("consumed %d records, want %d", res.Records, n)
		}
		names, err := fs.Names()
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(names)
		for _, name := range names {
			f, err := fs.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			size, err := f.Size()
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(h, name)
			binary.Write(h, binary.LittleEndian, size)
			if _, err := io.Copy(h, io.NewSectionReader(f, 0, size)); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return h.Sum64()
}

func TestGoldenRunFiles(t *testing.T) {
	got := make(map[string]uint64, len(goldenRuns))
	failed := false
	for _, kind := range []policy.Kind{policy.TwoWayRS, policy.RS, policy.Alternating} {
		for _, dist := range gen.Kinds {
			name := kind.String() + "/" + dist.String()
			want, ok := goldenRuns[name]
			if !ok {
				t.Fatalf("no golden hash for %s", name)
			}
			got[name] = hashRuns(t, kind, dist, true)
			if cmp := hashRuns(t, kind, dist, false); cmp != got[name] {
				t.Errorf("%s: keyed heaps wrote %#x, comparator-only heaps %#x", name, got[name], cmp)
			}
			if got[name] != want {
				t.Errorf("%s: run files hash to %#x, want %#x", name, got[name], want)
				failed = true
			}
		}
	}
	if failed {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		slices.Sort(names)
		table := ""
		for _, name := range names {
			table += fmt.Sprintf("\t%q: %#x,\n", name, got[name])
		}
		t.Logf("hashes at this commit:\n%s", table)
	}
}
