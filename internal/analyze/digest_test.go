package analyze

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/families"
	"repro/internal/space"
	"repro/internal/speclang"
)

// analyzeDigest pins the rendered report of every digest space at every
// digest budget. A change to the planner that keeps every plan, or to the
// analyzer that keeps every finding, must leave it alone; the W202 byte
// figures are part of it.
const analyzeDigest = "2139eb7b34176439f09c36032b96ef88d875e0f6bc6dbaad9e035930d2b42d5b"

// digestBudgets are the table-byte budgets the digest analyzes each space
// at: the default, then budgets that price out rows of a few words and
// rows of a few hundred.
var digestBudgets = []int64{0, 16, 64, 256, 4096, 65536}

// tabulationSpecs price table candidates out at the smaller digest
// budgets: a unary table, binary tables whose outer loop is a static range
// (the form a large enough budget materializes whole), binary tables whose
// outer domain follows another loop (row caches only), and a list inner
// domain, which never tabulates.
var tabulationSpecs = []struct{ name, src string }{
	{"unary", `i = range(1, 100000)
constraint hard ragged: i % 7 == 3
`},
	{"static-outer", `a = range(0, 50)
b = range(0, 30)
c = range(0, 200)
constraint hard ab: (a + b) % 3 == 0
constraint soft ac: (a + c) % 5 == 1
`},
	{"dynamic-outer", `a = range(1, 20)
b = range(0, a)
c = range(0, 300)
constraint soft bc: (b * 3 + c) % 7 == 2
`},
	{"mixed", `setting n = 1000
a = range(1, 9)
b = range(0, a * 4)
c = range(0, 64)
d = range(0, n)
let e = (c + d) % 11
constraint soft u1: d % 3 == 1
constraint soft ce: e == 4
constraint soft bd: (b + d) % 5 == 0
constraint soft ad: (a * d) % 4 == 3
constraint soft u2: (d + 2) % 9 != 0
`},
	{"list-inner", `x = range(0, 6)
z = range(0, 5)
y = union(range(0, 700), [1000, 2000])
constraint soft xy: (x + y) % 3 == 1
constraint soft zy: (z * y) % 8 == 5
constraint soft y1: y % 10 == 9
`},
}

// TestAnalyzeDigest compares the digest of the analyzer's report over the
// plan digest corpus and tabulationSpecs, at every digest budget, against
// the pinned value. It also requires W202 findings, so the digest keeps
// covering the budget pass.
func TestAnalyzeDigest(t *testing.T) {
	corpus := families.Corpus()
	for _, ts := range tabulationSpecs {
		corpus = append(corpus, families.Named{Name: "tab/" + ts.name,
			Build: func() (*space.Space, error) { return speclang.Parse(ts.src) }})
	}
	h := sha256.New()
	w202 := 0
	for _, c := range corpus {
		s, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, budget := range digestBudgets {
			fmt.Fprintf(h, "== %s budget=%d\n", c.Name, budget)
			rep, err := Analyze(s, Options{TabulateBudget: budget})
			if err != nil {
				fmt.Fprintf(h, "error: %v\n", err)
				continue
			}
			out := rep.Render(c.Name)
			w202 += strings.Count(out, "[W202]")
			fmt.Fprint(h, out)
		}
	}
	if w202 == 0 {
		t.Errorf("no W202 finding in the digest: the budget pass is not covered")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analyzeDigest {
		t.Errorf("analyze digest = %s, want %s (%d W202 findings)", got, analyzeDigest, w202)
	}
}
