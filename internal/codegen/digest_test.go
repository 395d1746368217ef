package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/families"
	"repro/internal/plan"
	"repro/internal/space"
	"repro/internal/speclang"
)

// cEmitDigest pins every byte of the C the generator emits for the corpus
// below. A change that moves the emitted C for any program, chunk size or
// threading mode moves it.
const cEmitDigest = "41a448430edb6c49ebd1c30d820f07bc8a15f258c05d768bd800fba23583bd51"

// tabSmokeSpec is the CI tabulation smoke spec; compiled in the order
// a, bb, cc it is the corpus member whose plan holds a unary table.
const tabSmokeSpec = `a = range(1, 25)
bb = range(1, 25)
cc = range(1, 513)
constraint soft u7: cc % 7 != 0
constraint soft u11: cc % 11 != 0
constraint soft bin: (bb + cc) % 17 != 0
`

type emitCase struct {
	name  string
	build func() (*space.Space, error)
	opts  plan.Options
}

// emitCorpus lists the programs the C emission digest covers: the GEMM
// variants, a sample of batched sizes, stencil with and without narrowing,
// dense with and without the reorderer, featureSpace, the tabulation smoke
// spec and the fuzz grid's random spaces.
func emitCorpus(t *testing.T) []emitCase {
	var out []emitCase
	for _, name := range families.GEMMNames() {
		out = append(out, emitCase{"gemm/" + name, func() (*space.Space, error) { return families.GEMM(name, 32) }, plan.Options{}})
	}
	for _, n := range []int64{1, 2, 5, 16, 33, 64, 100, 256, 512} {
		out = append(out, emitCase{fmt.Sprintf("batched/%d", n), func() (*space.Space, error) { return families.Batched(n) }, plan.Options{}})
	}
	for _, dim := range []int64{33, 129} {
		stencil := func() (*space.Space, error) { return families.Stencil(dim, 8) }
		out = append(out,
			emitCase{fmt.Sprintf("stencil/%d", dim), stencil, plan.Options{}},
			emitCase{fmt.Sprintf("stencil/%d/no-narrow", dim), stencil, plan.Options{DisableNarrowing: true}})
	}
	for _, n := range []int64{1024, 2560} {
		dense := func() (*space.Space, error) { return families.Dense(n) }
		out = append(out,
			emitCase{fmt.Sprintf("dense/%d", n), dense, plan.Options{}},
			emitCase{fmt.Sprintf("dense/%d/no-reorder", n), dense, plan.Options{DisableReorder: true}})
	}
	out = append(out,
		emitCase{"feature", func() (*space.Space, error) { return featureSpace(t), nil }, plan.Options{}},
		emitCase{"tabsmoke", func() (*space.Space, error) { return speclang.Parse(tabSmokeSpec) }, plan.Options{Order: []string{"a", "bb", "cc"}}})
	for i, s := range fuzzSpaces() {
		out = append(out, emitCase{fmt.Sprintf("fuzz/%d", i), func() (*space.Space, error) { return s, nil }, plan.Options{}})
	}
	return out
}

// TestCEmitDigest emits C for every corpus program at chunk 0, 8 and 64,
// with and without the pthreads variant, and compares the digest of all
// the sources against the pinned value.
func TestCEmitDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range emitCorpus(t) {
		s, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prog, err := plan.Compile(s, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, chunk := range []int{0, 8, 64} {
			for _, threads := range []bool{false, true} {
				fmt.Fprintf(h, "== %s chunk=%d threads=%v\n", c.name, chunk, threads)
				src, err := C(prog, COptions{Main: true, Threads: threads, ChunkSize: chunk})
				if err != nil {
					fmt.Fprintf(h, "error: %v\n", err)
					continue
				}
				h.Write([]byte(src))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cEmitDigest {
		t.Errorf("C emission digest = %s, want %s", got, cEmitDigest)
	}
}
