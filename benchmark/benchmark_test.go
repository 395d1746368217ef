package main

import (
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analyze"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/speclang"
)

func sessionsFor(t *testing.T, name string, seed int64) []*session {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl.sessions(rand.New(rand.NewSource(seed)))
}

func texts(ss []*session) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.text)
	}
	return out
}

func TestSeedDeterminesSpecText(t *testing.T) {
	for _, wl := range []string{"stencil-specs", "dense-inner"} {
		a, b := texts(sessionsFor(t, wl, 7)), texts(sessionsFor(t, wl, 7))
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different text on two calls", wl)
		}
		c := texts(sessionsFor(t, wl, 8))
		for i := range a {
			if a[i] == c[i] {
				t.Errorf("%s: session %d has the same text under seeds 7 and 8", wl, i)
			}
		}
	}
}

func TestGeneratedSpecsLintClean(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, wl := range []string{"stencil-specs", "dense-inner"} {
		for _, seed := range seeds {
			for _, s := range sessionsFor(t, wl, seed) {
				sp, err := speclang.Parse(s.text)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v\n%s", wl, seed, s.name, err, s.text)
				}
				rep, err := analyze.Analyze(sp, analyze.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Errors() > 0 {
					t.Errorf("%s seed %d %s:\n%s", wl, seed, s.name, rep.Render(s.name))
				}
			}
		}
	}
}

// tinySessions are small instances of every session kind, built from the
// same generators and reference nests as the workloads.
func tinySessions() []*session {
	st := stencilParams{MaxThreads: 256, MaxShmem: 4096, ElemSize: 4, Halo: 1, MinOccupancy: 64, DimBound: 33, MaxHaloPct: 60}
	dn := denseParams{N: 96, A: 5, B: 5, KB: 2, KA: 3, W1: 2, W2: 5,
		Unary: []modCheck{{1, 5, 2}, {0, 7, 3}}, NearB: modCheck{2, 11, 4}, NearA: modCheck{3, 13, 1}, Lanes: modCheck{1, 3, 0}}
	out := []*session{
		{name: "stencil", text: stencilText(st), objective: lookupScore, frac: 0.5, codegen: true,
			reference: func(yield func([]int64)) error { refStencil(st, yield); return nil }},
		{name: "dense", text: denseText(dn), objective: lookupScore, frac: 0.3,
			reference: func(yield func([]int64)) error { refDense(dn, yield); return nil }},
	}
	for _, s := range tuneResumeSessions(rand.New(rand.NewSource(1)))[:3] {
		s.codegen = false
		out = append(out, s)
	}
	return out
}

func TestReferenceMatchesEngine(t *testing.T) {
	for _, s := range tinySessions() {
		want, err := expect(s.reference, s.objective)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.newSpace()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := plan.Compile(sp, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var h setHash
		if _, err := engine.NewInterp(prog).Run(engine.Options{OnTuple: h.add}); err != nil {
			t.Fatal(err)
		}
		if want.survivors == 0 || h.n.Load() != want.survivors || h.sum.Load() != want.hash {
			t.Errorf("%s: engine %d survivors (hash %#x), reference %d (hash %#x)",
				s.name, h.n.Load(), h.sum.Load(), want.survivors, want.hash)
		}
	}
}

// TestEveryMetricMeasured runs one traced rep with probes over the tiny
// sessions and checks that every leg passes and every metric BENCHMARK.json
// names is produced.
func TestEveryMetricMeasured(t *testing.T) {
	if _, err := exec.LookPath("cc"); err != nil {
		t.Skip("no C compiler")
	}
	spec, err := loadSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	r := &runner{workload: "tiny", sessions: tinySessions(), tmp: t.TempDir(), tr: newTracer("tiny"), errLog: os.Stderr}
	r.tr.on, r.probes = true, true
	r.oracle()
	m := r.rep(1)
	if r.failed > 0 || r.attempted == 0 {
		t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
	}
	computedByRun := map[string]bool{"trace_overhead": true}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		if _, ok := m[d.Name]; !ok && !computedByRun[d.Name] {
			t.Errorf("metric %s is not measured", d.Name)
		}
	}
	if len(r.tr.spans) == 0 || len(r.tr.open) != 0 {
		t.Errorf("%d spans recorded, %d left open", len(r.tr.spans), len(r.tr.open))
	}
	printLayerTable(io.Discard, r.tr.spans)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("summary = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "x", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{scale(0.8), "improved"},
		{scale(1.05), "within bound"},
		{scale(1.2), "regressed"},
		{noisy, "unresolved"},
	} {
		if got, _ := verdict(d, base, tc.b); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
	if got, _ := verdict(d, base[:9], scale(0.8)[:9]); got == "improved" {
		t.Errorf("nine pairs claimed a gain")
	}
}
