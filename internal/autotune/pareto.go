package autotune

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
)

// The paper's §XI.E describes using BEAST to "optimize two objective
// functions at once" — kernel performance and energy consumption [4]. This
// file provides the multi-objective side of the pipeline: exhaustive
// enumeration scored under several objectives at once, reduced to the
// Pareto front of non-dominated configurations.

// MultiResult is one configuration scored under every objective
// (higher is better for each).
type MultiResult struct {
	Tuple  []int64
	Scores []float64
}

// MultiReport is the outcome of a multi-objective run.
type MultiReport struct {
	// Front is the Pareto front, sorted descending by the first objective.
	Front []MultiResult
	// Names labels the objectives (for rendering).
	Names     []string
	Stats     *engine.Stats
	Survivors int64
	Evaluated int64
}

func equalScores(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dominates reports whether a dominates b: at least as good in every
// objective and strictly better in one.
func Dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// RunPareto enumerates the space, scores every survivor under each
// objective, and returns the Pareto front. Objective functions must be
// safe for concurrent use when opts.Workers > 1.
func (t *Tuner) RunPareto(objectives map[string]Objective, opts Options) (*MultiReport, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("autotune: no objectives")
	}
	if err := opts.noCheckpoint("pareto"); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(objectives))
	for n := range objectives {
		names = append(names, n)
	}
	sort.Strings(names)
	objs := make([]Objective, len(names))
	for i, n := range names {
		objs[i] = objectives[n]
	}

	eng, err := engine.NewCompiled(t.Prog)
	if err != nil {
		return nil, err
	}
	// Maintain the running front online: a candidate enters if no front
	// member dominates it, evicting any members it dominates. The front
	// stays small in practice, so the scan cost is negligible next to the
	// objective evaluations.
	var front []MultiResult
	var evals int64
	consider := func(tuple []int64) bool {
		scores := make([]float64, len(objs))
		for i, o := range objs {
			scores[i] = o(tuple)
		}
		evals++
		for _, m := range front {
			if Dominates(m.Scores, scores) {
				return true
			}
			if equalScores(m.Scores, scores) {
				// Keep one representative per score vector: flag-only
				// variants that tie exactly would otherwise flood the
				// front (the enumeration order makes the kept one
				// deterministic).
				return true
			}
		}
		kept := front[:0]
		for _, m := range front {
			if !Dominates(scores, m.Scores) {
				kept = append(kept, m)
			}
		}
		front = kept
		cp := make([]int64, len(tuple))
		copy(cp, tuple)
		front = append(front, MultiResult{Tuple: cp, Scores: scores})
		return true
	}
	st, err := eng.Run(engine.Options{OnTuple: consider})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(front, func(i, j int) bool { return front[i].Scores[0] > front[j].Scores[0] })
	return &MultiReport{
		Front: front, Names: names, Stats: st,
		Survivors: st.Survivors, Evaluated: evals,
	}, nil
}

// Render formats the front as a fixed-width table.
func (r *MultiReport) Render(iterNames []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pareto front: %d non-dominated of %d survivors\n", len(r.Front), r.Survivors)
	head := make([]string, len(r.Names))
	for i, n := range r.Names {
		head[i] = fmt.Sprintf("%12s", n)
	}
	fmt.Fprintf(&b, "%s  %s\n", strings.Join(head, " "), strings.Join(iterNames, " "))
	for _, m := range r.Front {
		cells := make([]string, len(m.Scores))
		for i, s := range m.Scores {
			cells[i] = fmt.Sprintf("%12.3f", s)
		}
		vals := make([]string, len(m.Tuple))
		for i, v := range m.Tuple {
			vals[i] = fmt.Sprintf("%d", v)
		}
		fmt.Fprintf(&b, "%s  %s\n", strings.Join(cells, " "), strings.Join(vals, " "))
	}
	return b.String()
}
