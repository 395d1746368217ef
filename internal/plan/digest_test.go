package plan_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"repro/internal/families"
	"repro/internal/plan"
	"repro/internal/space"
)

// reorderDigest pins the loop-order optimizer's decisions and the plans
// they produce over a fixed corpus of real spaces. Any change to the
// sampled selectivities, the cost model, the arbitration or the compiled
// nest moves it; plan-time speedups must leave it alone.
const reorderDigest = "37dae46746fb13c7f8536212794a8d6db1576d120a264df751514739c72ebd2e"

// digestCorpus lists the spaces the digest covers, by name.
func digestCorpus() []struct {
	name  string
	build func() (*space.Space, error)
} {
	type entry = struct {
		name  string
		build func() (*space.Space, error)
	}
	var out []entry
	for _, name := range families.GEMMNames() {
		out = append(out, entry{"gemm/" + name, func() (*space.Space, error) { return families.GEMM(name, 32) }})
	}
	for n := int64(1); n <= 512; n++ {
		out = append(out, entry{fmt.Sprintf("batched/%d", n), func() (*space.Space, error) { return families.Batched(n) }})
	}
	for _, dim := range []int64{33, 129, 257} {
		for _, elem := range []int64{4, 8} {
			out = append(out, entry{fmt.Sprintf("stencil/%d/%d", dim, elem),
				func() (*space.Space, error) { return families.Stencil(dim, elem) }})
		}
	}
	for _, n := range []int64{1024, 2560} {
		out = append(out, entry{fmt.Sprintf("dense/%d", n), func() (*space.Space, error) { return families.Dense(n) }})
	}
	return out
}

// writeReorderDigest feeds one compiled program's reorder decision and
// plan text to h.
func writeReorderDigest(h hash.Hash, prog *plan.Program) {
	ri := prog.Reorder
	if ri == nil {
		fmt.Fprintln(h, "reorder: none")
	} else {
		fmt.Fprintf(h, "applied=%v chosen=%s\n", ri.Applied, strings.Join(ri.Chosen, ","))
		names := make([]string, 0, len(ri.Cards))
		for name := range ri.Cards {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "card %s=%d\n", name, ri.Cards[name])
		}
		for _, s := range ri.Selectivity {
			fmt.Fprintf(h, "sel %s deps=%s pass=%.17g samples=%d exact=%v\n",
				s.Name, strings.Join(s.Deps, ","), s.Pass, s.Samples, s.Exact)
		}
		fmt.Fprintf(h, "visits declared=%.17g estimated=%.17g\n", ri.DeclaredVisits, ri.EstimatedVisits)
	}
	fmt.Fprint(h, prog.Describe())
}

// TestReorderDecisionDigest compiles the corpus with default options and
// compares the digest of every decision and plan against the pinned value.
func TestReorderDecisionDigest(t *testing.T) {
	h := sha256.New()
	for _, c := range digestCorpus() {
		fmt.Fprintf(h, "== %s\n", c.name)
		s, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		writeReorderDigest(h, prog)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != reorderDigest {
		t.Errorf("reorder decision digest = %s, want %s", got, reorderDigest)
	}
}
