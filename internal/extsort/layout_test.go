package extsort

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// runFileGolden is the SHA-256 of every spill file one generation pass
// leaves behind — each name, length and content in name order — per policy
// and input, in the raw layout. It pins the layout itself, backward chains
// included. A change to it is a change of the on-disk format.
var runFileGolden = map[string]string{
	"2wrs/mixed/raw":              "0a267207af6ef419887dc6d6901fd8f6a86febda8ac91a6f95cb782abe3568ac",
	"rs/mixed/raw":                "165e972193f6ec9973e8256843354ac161c0a96e5cf372c71f41249ab475c0d5",
	"alternating/mixed/raw":       "30196d18e20ce6ffdea593f2a09e9e8d88b41f80653c3226077747e99034ad35",
	"auto/mixed/raw":              "0a267207af6ef419887dc6d6901fd8f6a86febda8ac91a6f95cb782abe3568ac",
	"2wrs/alternating/raw":        "beda70288666f19c5dcfeaf7891b3a971f0b9d7985d64cf49b0377a18eddf536",
	"rs/alternating/raw":          "409d909ad8bc118725092d63bffa0b3fbadf17ae8560c4bcdb516725322cb02f",
	"alternating/alternating/raw": "86d0cdabf1816edf579afc9cf6a920ee24e4b0dc21e7fc51f190aced24857c2f",
	"auto/alternating/raw":        "beda70288666f19c5dcfeaf7891b3a971f0b9d7985d64cf49b0377a18eddf536",
}

// TestRunFileLayoutGolden generates runs with a fixed seed for every policy
// that writes chains — 2wrs, rs, alternating and auto — on the mixed and the
// alternating input, and holds the files to runFileGolden. Every configuration is generated four ways — with
// and without a key codec, one file per spill file and in a spill arena,
// each file read back through it by name — and all four must store the same
// bytes (-short takes the arena leg keyed only). The pool budget makes a
// generator's block four pages and a chain file has six data pages, so
// chains roll over to their next file in the middle of a block.
func TestRunFileLayoutGolden(t *testing.T) {
	generate := func(recs []record.Record, alg policy.Kind, keyed, arena bool) (string, bool) {
		fs := spillLeg(arena)
		st := storage.NewRaw(fs)
		storage.PoolOf(st).Reserve(128 << 10)
		em := runio.NewEmitterOn[record.Record](st, "gold", codec.Record16{}, record.Less)
		em.PagesPerFile = 7
		if keyed {
			em.KeyCodec = codec.KeyRecord16{}
		}
		pcfg := policy.Config{Memory: 2000, TWRS: core.Config{
			Setup: core.BothBuffers, BufferFrac: 0.02,
			Input: core.InMean, Output: core.OutRandom, Seed: 11,
		}}
		if _, err := policy.Generate[record.Record](alg, stream.NewSliceReader(recs), em, pcfg, record.Key); err != nil {
			t.Fatal(err)
		}
		names, err := fs.Names()
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(names)
		h := sha256.New()
		rolled := false
		for _, n := range names {
			data := readFile(t, fs, n)
			h.Write([]byte(n))
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
			h.Write(data)
			rolled = rolled || strings.HasSuffix(n, ".1")
		}
		return hex.EncodeToString(h.Sum(nil)), rolled
	}

	anyRolled := false
	for _, kind := range []gen.Kind{gen.MixedBalanced, gen.Alternating} {
		recs := gen.Generate(gen.Config{Kind: kind, N: 40000, Seed: 7, Noise: 100})
		for _, alg := range []policy.Kind{policy.TwoWayRS, policy.RS, policy.Alternating, policy.Auto} {
			name := fmt.Sprintf("%v/%v/raw", alg, kind)
			want, ok := runFileGolden[name]
			for _, keyed := range []bool{false, true} {
				for _, arena := range []bool{false, true} {
					if arena && testing.Short() && !keyed {
						continue // -short: the arena leg once per configuration
					}
					got, rolled := generate(recs, alg, keyed, arena)
					anyRolled = anyRolled || rolled
					if !ok {
						t.Errorf("no golden for %s: %q: %q,", name, name, got)
						want, ok = got, true
					} else if got != want {
						t.Errorf("%s (keyed %v, arena %v): run files hash to %s, want %s", name, keyed, arena, got, want)
					}
				}
			}
		}
	}
	if !anyRolled {
		t.Fatal("no chain rolled over to a second file: the fixture does not cover a rollover")
	}
}

// stringFileGolden is runFileGolden for variable-width elements: strings on
// 64-byte pages, three pages to a chain file, so encodings span pages and
// files and the places the chain writer lays their bytes — and the start
// page and position each header records — are pinned too.
var stringFileGolden = map[string]string{
	"2wrs/mixed/raw":              "0b494aa244e8b53daa271059421b34507147ba457bb9041338ccbee5c30d918c",
	"rs/mixed/raw":                "ab0304a0f720f9e4c67a385342db546852e37bb59e695bf0017b9248fa49c939",
	"alternating/mixed/raw":       "38cb2a88a28abb62b11130b99626f52a88537d105df59913e568a44fac54e390",
	"auto/mixed/raw":              "0b494aa244e8b53daa271059421b34507147ba457bb9041338ccbee5c30d918c",
	"2wrs/alternating/raw":        "a5070b8285d20aecce52eb498c98557598cdda96589cba71ab3cdd29b62a9363",
	"rs/alternating/raw":          "13862b6d512e975b9272d00535bdda2c12328ffbb8354eed5ab29e358df44151",
	"alternating/alternating/raw": "a0c65cb7047fe35a9b4ecd2dde8715316fc5fc9621fc08dc835d685e36ea04d2",
	"auto/alternating/raw":        "a5070b8285d20aecce52eb498c98557598cdda96589cba71ab3cdd29b62a9363",
}

// stringComparatorGolden is stringFileGolden for the 2WRS cells of
// TestStringRunFileLayoutGolden that pass no key projection, by input
// heuristic, buffer setup and comparator.
var stringComparatorGolden = map[string]string{
	"2wrs/mean/both/full":      "4ce7208010ae8fb640d68143d400b127b484c4b13a45fafd296cb5c051e25452",
	"2wrs/mean/both/prefix":    "56d487b029663afe8597e212fa3df374cd6dc5f3d57cd957dda2aa91bff30e9c",
	"2wrs/mean/input/full":     "94ad44e9c2c6d33e7e2b945dd9f21ea39d2af9297a2ca8989d1b62340a5150a4",
	"2wrs/mean/input/prefix":   "71ca0cfafee5c1f66d68049a2a44419875c9d41ca33f5e52083e37c3b6569703",
	"2wrs/median/both/full":    "d95350823c15eb412ad0a28958cefbcd3194736c40e6b4356aab5a03054c940f",
	"2wrs/median/both/prefix":  "09b83577f2caae9e3e00bb1cc3ea75afb713fd45bfff5c8a3aaab7a687e8cd10",
	"2wrs/median/input/full":   "d13d63aee7585db74adefbca23a0e2c7efff315463f48a0b3cbcc1fd74b92e49",
	"2wrs/median/input/prefix": "02b254af20a224d5730f6c405dc22ba892b3e462523dd81d4850cc8657713f1a",
}

// spillLeg is the file system a layout golden generates into: a MemFS, or a
// spill arena over one in the extents a sort of the golden's budget uses.
func spillLeg(arena bool) vfs.FS {
	if !arena {
		return vfs.NewMemFS()
	}
	return vfs.NewArena(vfs.NewMemFS(), "gold"+arenaSuffix, runio.BlockBytes(128<<10))
}

// TestStringRunFileLayoutGolden is TestRunFileLayoutGolden for codec.String
// elements 22 to 50 bytes long. A record becomes a string whose order is
// the record's (its key, offset to unsigned, in 20 digits) padded by a
// length taken from its payload.
func TestStringRunFileLayoutGolden(t *testing.T) {
	less := func(a, b string) bool { return a < b }
	key := func(s string) float64 {
		k, _ := strconv.ParseUint(s[:20], 10, 64)
		return float64(k)
	}
	defaults := core.Config{
		Setup: core.BothBuffers, BufferFrac: 0.02,
		Input: core.InMean, Output: core.OutRandom, Seed: 11,
	}
	generate := func(strs []string, alg policy.Kind, keyed, arena bool, tw core.Config, less func(a, b string) bool, key func(string) float64) (string, bool) {
		fs := spillLeg(arena)
		st := storage.NewRaw(fs)
		storage.PoolOf(st).Reserve(128 << 10)
		em := runio.NewEmitterOn[string](st, "gold", codec.String{}, less)
		em.PageSize, em.PagesPerFile = 64, 3
		if keyed {
			em.KeyCodec = codec.KeyString{}
		}
		pcfg := policy.Config{Memory: 2000, TWRS: tw}
		if _, err := policy.Generate[string](alg, stream.NewSliceReader(strs), em, pcfg, key); err != nil {
			t.Fatal(err)
		}
		names, err := fs.Names()
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(names)
		h := sha256.New()
		rolled := false
		for _, n := range names {
			data := readFile(t, fs, n)
			h.Write([]byte(n))
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
			h.Write(data)
			rolled = rolled || strings.HasSuffix(n, ".1")
		}
		return hex.EncodeToString(h.Sum(nil)), rolled
	}

	anyRolled := false
	for _, kind := range []gen.Kind{gen.MixedBalanced, gen.Alternating} {
		recs := gen.Generate(gen.Config{Kind: kind, N: 20000, Seed: 7, Noise: 100})
		strs := make([]string, len(recs))
		for i, r := range recs {
			strs[i] = fmt.Sprintf("%020d", uint64(r.Key)^1<<63) + strings.Repeat("x", 2+int(r.Aux%29))
		}
		for _, alg := range []policy.Kind{policy.TwoWayRS, policy.RS, policy.Alternating, policy.Auto} {
			name := fmt.Sprintf("%v/%v/raw", alg, kind)
			want, ok := stringFileGolden[name]
			for _, keyed := range []bool{false, true} {
				for _, arena := range []bool{false, true} {
					if arena && testing.Short() && !keyed {
						continue // -short: the arena leg once per configuration
					}
					got, rolled := generate(strs, alg, keyed, arena, defaults, less, key)
					anyRolled = anyRolled || rolled
					if !ok {
						t.Errorf("no golden for %s: %q: %q,", name, name, got)
						want, ok = got, true
					} else if got != want {
						t.Errorf("%s (keyed %v, arena %v): run files hash to %s, want %s", name, keyed, arena, got, want)
					}
				}
			}
		}
	}
	if !anyRolled {
		t.Fatal("no chain rolled over to a second file: the fixture does not cover a rollover")
	}

	// The comparator-only cells: 2WRS with no key projection, where Mean
	// and Median both read the input buffer's median element. A third of
	// the input draws its keys from six values, and the prefix comparator
	// orders by those keys alone, so the buffer holds many elements that
	// are equivalent without being equal.
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 20000, Seed: 7, Noise: 100})
	strs := make([]string, len(recs))
	for i, r := range recs {
		k := r.Key
		if i >= 6000 && i < 12000 {
			k = recs[6000+int(r.Aux%6)].Key
		}
		strs[i] = fmt.Sprintf("%020d", uint64(k)^1<<63) + strings.Repeat("x", 2+int(r.Aux%29))
	}
	prefixLess := func(a, b string) bool { return a[:20] < b[:20] }
	for _, in := range []core.InputHeuristic{core.InMean, core.InMedian} {
		for _, setup := range []core.BufferSetup{core.BothBuffers, core.InputBufferOnly} {
			for _, cmp := range []string{"full", "prefix"} {
				name := fmt.Sprintf("2wrs/%v/%v/%s", in, setup, cmp)
				want, ok := stringComparatorGolden[name]
				tw := defaults
				tw.Input, tw.Setup, tw.BufferFrac = in, setup, 0.1
				cl := less
				if cmp == "prefix" {
					cl = prefixLess
				}
				for _, keyed := range []bool{false, true} {
					if keyed && cmp == "prefix" {
						continue // KeyString orders whole strings
					}
					got, _ := generate(strs, policy.TwoWayRS, keyed, false, tw, cl, nil)
					if !ok {
						t.Errorf("no golden for %s: %q: %q,", name, name, got)
						want, ok = got, true
					} else if got != want {
						t.Errorf("%s (keyed %v): run files hash to %s, want %s", name, keyed, got, want)
					}
				}
			}
		}
	}
}
