package autotune

import (
	"context"
	"math"
	"math/rand"
)

// Simulated annealing: the second of the "statistical search methods" the
// paper's conclusion schedules for the multidimensional-growth problem.
// Where the hill climber stops at the first local optimum, annealing
// accepts downhill moves with probability exp(dScore / T) under a
// geometric cooling schedule, escaping the ridge structure that tiling
// spaces exhibit (many near-optimal plateaus separated by divisibility
// cliffs).

// AnnealOptions extends Options for the annealing strategy.
type AnnealOptions struct {
	Options
	// InitialTemp is the starting temperature in score units; 0 derives
	// it from the seed sample's score spread.
	InitialTemp float64
	// Cooling is the geometric factor per step (default 0.98).
	Cooling float64
}

// RunAnneal performs multi-restart simulated annealing over the
// constrained space. Seeds come from a uniform survivor sample; moves are
// single-dimension domain steps repaired to feasibility, as in the hill
// climber.
func (t *Tuner) RunAnneal(opts AnnealOptions) (*Report, error) {
	return t.RunAnnealContext(context.Background(), opts)
}

// RunAnnealContext is RunAnneal under a context: seeding enumeration and
// the restart loop both observe cancellation.
func (t *Tuner) RunAnnealContext(ctx context.Context, opts AnnealOptions) (*Report, error) {
	if err := opts.noCheckpoint(Anneal.String()); err != nil {
		return nil, err
	}
	base := opts.Options
	if base.TopK <= 0 {
		base.TopK = 10
	}
	if base.Seed == 0 {
		base.Seed = 1
	}
	if base.Restarts <= 0 {
		base.Restarts = 8
	}
	if base.Steps <= 0 {
		base.Steps = 400
	}
	if opts.Cooling <= 0 || opts.Cooling >= 1 {
		opts.Cooling = 0.98
	}

	seedOpts := base
	seedOpts.Samples = base.Restarts * 2
	seedOpts.TopK = base.Restarts * 2
	seeds, err := t.runRandomSample(ctx, seedOpts)
	if err != nil {
		return nil, err
	}
	if len(seeds.Best) == 0 {
		return &Report{Stats: seeds.Stats, Survivors: seeds.Survivors, Strategy: Anneal}, nil
	}

	// Derive the initial temperature from the seed score spread when not
	// given: a hot enough start accepts most moves.
	if opts.InitialTemp <= 0 {
		lo, hi := seeds.Best[len(seeds.Best)-1].Score, seeds.Best[0].Score
		opts.InitialTemp = math.Max((hi-lo)/2, 1e-9)
	}

	pc := newPointChecker(t.Prog)
	rng := rand.New(rand.NewSource(base.Seed + 101))
	var best resultHeap
	var evals int64
	score := func(tuple []int64) float64 {
		evals++
		return t.Objective(tuple)
	}
	for r := 0; r < base.Restarts && r < len(seeds.Best); r++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		cur := append([]int64(nil), seeds.Best[r].Tuple...)
		curScore := score(cur)
		best.offer(cur, curScore, base.TopK)
		temp := opts.InitialTemp
		for step := 0; step < base.Steps; step++ {
			// d is a loop depth; ti is the tuple position of that loop's
			// iterator (tuples are in declaration order).
			d := rng.Intn(len(pc.prog.Loops))
			ti := pc.tupleIdx[d]
			vals := pc.domainValues(cur, d)
			if len(vals) < 2 {
				temp *= opts.Cooling
				continue
			}
			idx := indexOf(vals, cur[ti])
			// Jump up to 4 positions in either direction: wide enough to
			// preserve mod-4-style couplings between dimensions, short
			// enough to keep repair cheap.
			j := idx + (rng.Intn(9) - 4)
			if j < 0 {
				j = 0
			}
			if j >= len(vals) {
				j = len(vals) - 1
			}
			if vals[j] == cur[ti] {
				temp *= opts.Cooling
				continue
			}
			cand := append([]int64(nil), cur...)
			cand[ti] = vals[j]
			if !pc.repair(cand) || !pc.valid(cand) {
				temp *= opts.Cooling
				continue
			}
			s := score(cand)
			if s >= curScore || rng.Float64() < math.Exp((s-curScore)/math.Max(temp, 1e-12)) {
				cur, curScore = cand, s
				best.offer(cand, s, base.TopK)
			}
			temp *= opts.Cooling
		}
	}
	return &Report{
		Best: best.sorted(), Stats: seeds.Stats,
		Evaluated: evals, Survivors: seeds.Survivors,
		Strategy:  Anneal,
		IterNames: t.Prog.TupleNames(),
		Program:   t.Prog,
	}, nil
}
