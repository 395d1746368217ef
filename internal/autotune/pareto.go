package autotune

import (
	"fmt"
	"slices"
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
	// Front is the Pareto front, sorted descending by the first objective;
	// ties go to the smaller tuple in declaration order.
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

// paretoFront is a running Pareto front: the non-dominated set of every
// scored tuple offered to it, one member per score vector. It is one
// worker's front during a run and the merged front after it.
type paretoFront struct {
	members []MultiResult
	scores  []float64 // the candidate being scored
	evals   int64
}

// consider offers a scored tuple. A candidate enters if no member
// dominates it, evicting the members it dominates. Among tuples with
// equal score vectors the smallest in declaration order is kept, so the
// merged front does not depend on which worker saw which tuple first:
// flag-only variants that tie exactly would otherwise flood the front.
// consider copies what it keeps.
func (f *paretoFront) consider(tuple []int64, scores []float64) {
	for i := range f.members {
		m := &f.members[i]
		if Dominates(m.Scores, scores) {
			return
		}
		if equalScores(m.Scores, scores) {
			if slices.Compare(tuple, m.Tuple) < 0 {
				copy(m.Tuple, tuple)
			}
			return
		}
	}
	kept := f.members[:0]
	for _, m := range f.members {
		if !Dominates(scores, m.Scores) {
			kept = append(kept, m)
		}
	}
	f.members = append(kept, MultiResult{Tuple: slices.Clone(tuple), Scores: slices.Clone(scores)})
}

// RunPareto enumerates the space with opts.Workers, SplitDepth and
// ChunkSize, scores every survivor under each objective, and returns the
// Pareto front. Each worker keeps its own front without a lock, and the
// fronts are merged once the run ends; the result is identical at every
// worker count and chunk size. Objective functions must be safe for
// concurrent use when opts.Workers > 1.
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
	// The fronts stay small in practice, so scanning one per candidate
	// costs little next to the objective evaluations.
	var fronts workerSet[paretoFront]
	st, err := eng.Run(engine.Options{
		Workers:    opts.Workers,
		SplitDepth: opts.SplitDepth,
		ChunkSize:  opts.ChunkSize,
		NewOnTuple: func() func([]int64) bool {
			f := fronts.add()
			f.scores = make([]float64, len(objs))
			return func(tuple []int64) bool {
				for i, o := range objs {
					f.scores[i] = o(tuple)
				}
				f.evals++
				f.consider(tuple, f.scores)
				return true
			}
		},
	})
	if err != nil {
		return nil, err
	}
	var merged paretoFront
	for _, f := range fronts.all() {
		merged.evals += f.evals
		for _, m := range f.members {
			merged.consider(m.Tuple, m.Scores)
		}
	}
	front := merged.members
	sort.Slice(front, func(i, j int) bool {
		if a, b := front[i].Scores[0], front[j].Scores[0]; a != b {
			return a > b
		}
		return slices.Compare(front[i].Tuple, front[j].Tuple) < 0
	})
	return &MultiReport{
		Front: front, Names: names, Stats: st,
		Survivors: st.Survivors, Evaluated: merged.evals,
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
