package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/families"
	"repro/internal/plan"
)

// runCountersDigest pins the run counters of every corpus space on every
// backend under every digest schedule: loop visits, checks, kills,
// survivors, the optimizer's temp counters and ExprOps. A change to how
// the engines or runContext count that keeps every number must leave it
// alone. runCountersDigestShort pins the -short sample, every eighth
// corpus space.
const (
	runCountersDigest      = "0f0597ec9a8839277173f2d50770d388845261ab866fd4722f408e84418ac08c"
	runCountersDigestShort = "39fb3e3e8e6e395fe67407af63afd254dab235bfd330db4f47d47a8a03e3e75d"
)

// digestSchedules are the run options the digest covers: a sequential
// scalar run, a chunked tiled run on two workers, and a run stopped early
// by its survivor limit.
var digestSchedules = []struct {
	name string
	opts Options
}{
	{"seq", Options{}},
	{"chunk64-w2", Options{ChunkSize: 64, Workers: 2}},
	{"limit7", Options{Limit: 7}},
}

// TestRunCountersDigest compares the digest of the run counters over
// families.Corpus() against the pinned value.
func TestRunCountersDigest(t *testing.T) {
	want, every := runCountersDigest, 1
	if testing.Short() {
		want, every = runCountersDigestShort, 8
	}
	h := sha256.New()
	for i, c := range families.Corpus() {
		if i%every != 0 {
			continue
		}
		fmt.Fprintf(h, "== %s\n", c.Name)
		s, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		prog, err := plan.Compile(s, plan.Options{})
		if err != nil {
			fmt.Fprintf(h, "compile error: %v\n", err)
			continue
		}
		for _, e := range allEngines(t, prog) {
			for _, sc := range digestSchedules {
				st, err := e.Run(sc.opts)
				if err != nil {
					t.Fatalf("%s %s %s: %v", c.Name, e.Name(), sc.name, err)
				}
				fmt.Fprintf(h, "%s %s visits=%v checks=%v kills=%v survivors=%d temp_evals=%v temp_hits=%v exprops=%d\n",
					e.Name(), sc.name, st.LoopVisits, st.Checks, st.Kills, st.Survivors,
					st.TempEvals, st.TempHits, st.ExprOps(prog))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("run counters digest = %s, want %s", got, want)
	}
}
