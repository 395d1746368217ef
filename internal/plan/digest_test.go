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
// nest moves it; a plan-time speedup that keeps every estimate must leave
// it alone.
const reorderDigest = "091fbb867b73199a47182e5e3f39a8e6d539faf7d31ef23b1cfc9aae34962f8e"

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

// corpusDigest compiles every corpus space with default options and
// returns the sha256 of the text write feeds for each compiled program
// (compile errors are hashed as text).
func corpusDigest(t *testing.T, write func(h hash.Hash, prog *plan.Program)) string {
	t.Helper()
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
		write(h, prog)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestReorderDecisionDigest compares the digest of every decision and plan
// in the corpus against the pinned value.
func TestReorderDecisionDigest(t *testing.T) {
	if got := corpusDigest(t, writeReorderDigest); got != reorderDigest {
		t.Errorf("reorder decision digest = %s, want %s", got, reorderDigest)
	}
}

// reorderChoiceDigest pins only which order each corpus space is compiled
// with: Applied and Chosen. Estimation changes that move selectivities or
// estimated visits without flipping a decision leave it alone.
const reorderChoiceDigest = "80fd763ea52cb89bbcf4899c5f3bf9a3d3d78f4d115d22177aa6856c5b2f79da"

// TestReorderChoiceDigest compares the digest of every space's Applied and
// Chosen against the pinned value.
func TestReorderChoiceDigest(t *testing.T) {
	got := corpusDigest(t, func(h hash.Hash, prog *plan.Program) {
		if ri := prog.Reorder; ri == nil {
			fmt.Fprintln(h, "reorder: none")
		} else {
			fmt.Fprintf(h, "applied=%v chosen=%s\n", ri.Applied, strings.Join(ri.Chosen, ","))
		}
	})
	if got != reorderChoiceDigest {
		t.Errorf("reorder choice digest = %s, want %s", got, reorderChoiceDigest)
	}
}
