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

// goldenRuns holds, per heap-based policy and input distribution, a hash
// of every run file the generator writes (names and bytes). They were
// recorded at the commit before the sift kernels were rewritten: the heaps
// decide which record leaves next and Aux carries each record's input
// position, so one different child pick, tie break or sift-up stop
// anywhere shows up as a different byte in some run. A change to the
// kernels must reproduce these; a change to a generator's policy
// re-records them (the failure message prints the table).
var goldenRuns = map[string]uint64{
	"2wrs/sorted":             0xd81ac426a0eda9dd,
	"2wrs/reverse":            0xcfdef62e5b11bc26,
	"2wrs/alternating":        0x386b4cccc2ada424,
	"2wrs/random":             0x702f2fd4a7f5198c,
	"2wrs/mixed":              0x7d2db68c2b53f759,
	"2wrs/imbalanced":         0x83ae1e9dd83d4ee2,
	"rs/sorted":               0x3fc708915954c58,
	"rs/reverse":              0x274d46be1474e765,
	"rs/alternating":          0xbb48bfc6492d8a52,
	"rs/random":               0xed9b48edee83713f,
	"rs/mixed":                0xb00b58d15d6a62ee,
	"rs/imbalanced":           0x5d74eb55fcc0541b,
	"alternating/sorted":      0xb40412ca61141936,
	"alternating/reverse":     0xaa5719dc98d7f12a,
	"alternating/alternating": 0xed6160168b8a22b2,
	"alternating/random":      0xa0c3afa2ce5e5b0b,
	"alternating/mixed":       0x57cc85a85d1d765,
	"alternating/imbalanced":  0x50d8d610f711d635,
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
