package autotune

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scores returns a ranking's score vector. Ties at the top-K cutoff may
// keep different (equally good) tuples depending on arrival order, so
// rankings are compared by score.
func scores(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	return out
}

// TestExhaustiveCheckpointResume is the tuner-level resume contract: an
// exhaustive run cancelled mid-sweep with -checkpoint semantics, resumed
// from the file, must land on exactly the clean run's survivor count,
// objective-call count, and top-K ranking — the Extra payload restores the
// partial heap so no configuration is scored twice or lost.
func TestExhaustiveCheckpointResume(t *testing.T) {
	s, obj, want := quadSpace(t)
	path := filepath.Join(t.TempDir(), "tune.ckpt")

	cleanTuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanTuner.Run(Options{Strategy: Exhaustive, TopK: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted leg: the objective cancels the context partway through
	// and then drags its feet so the cancellation reliably wins the race
	// against sweep completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	slowTuner, err := New(s, func(tuple []int64) float64 {
		if n.Add(1) == 20 {
			cancel()
		}
		time.Sleep(200 * time.Microsecond)
		return obj(tuple)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = slowTuner.RunContext(ctx, Options{
		Strategy: Exhaustive, TopK: 3, Workers: 2, CheckpointPath: path,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted leg: err = %v, want context.Canceled", err)
	}

	resumeTuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumeTuner.RunContext(context.Background(), Options{
		Strategy: Exhaustive, TopK: 3, Workers: 4,
		CheckpointPath: path, ResumePath: path,
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Survivors != clean.Survivors {
		t.Fatalf("resumed survivors = %d, clean = %d", rep.Survivors, clean.Survivors)
	}
	if got := n.Load() + rep.Evaluated - clean.Evaluated; rep.Evaluated != clean.Evaluated {
		t.Fatalf("resumed Evaluated = %d, clean = %d (overlap %d): configurations scored twice or lost",
			rep.Evaluated, clean.Evaluated, got)
	}
	if !reflect.DeepEqual(scores(rep.Best), scores(clean.Best)) {
		t.Fatalf("resumed top-K scores diverge:\ngot  %+v\nwant %+v", rep.Best, clean.Best)
	}
	if !reflect.DeepEqual(rep.Best[0].Tuple, want) {
		t.Fatalf("resumed winner %v, want %v", rep.Best[0].Tuple, want)
	}
}

// TestExhaustiveCheckpointCrashResume resumes every checkpoint version an
// exhaustive run writes, as if the process were killed right after that
// write. Each resume must land on exactly the clean run's survivor count,
// objective-call count and top-K scores: a snapshot that recorded the
// objective calls or heap entries of a tile it does not mark done would
// make the resume score that tile twice.
func TestExhaustiveCheckpointCrashResume(t *testing.T) {
	s, obj, _ := quadSpace(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.ckpt")
	opts := Options{Strategy: Exhaustive, TopK: 3, Workers: 4}

	cleanTuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := cleanTuner.Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	// The objective keeps every distinct version of the checkpoint file it
	// sees; the slow calls keep other workers' deliveries in flight while
	// a snapshot is written.
	var mu sync.Mutex
	seen := map[string]bool{}
	var versions [][]byte
	slowTuner, err := New(s, func(tuple []int64) float64 {
		time.Sleep(50 * time.Microsecond)
		if b, err := os.ReadFile(path); err == nil {
			mu.Lock()
			if !seen[string(b)] {
				seen[string(b)] = true
				versions = append(versions, b)
			}
			mu.Unlock()
		}
		return obj(tuple)
	})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := opts
	ckpt.CheckpointPath, ckpt.CheckpointEvery = path, 1
	if _, err := slowTuner.Run(ckpt); err != nil {
		t.Fatal(err)
	}
	if len(versions) < 10 {
		t.Fatalf("only %d checkpoint versions observed", len(versions))
	}

	for i, v := range versions {
		vp := filepath.Join(dir, fmt.Sprintf("v%d.ckpt", i))
		if err := os.WriteFile(vp, v, 0o644); err != nil {
			t.Fatal(err)
		}
		tuner, err := New(s, obj)
		if err != nil {
			t.Fatal(err)
		}
		resume := opts
		resume.ResumePath = vp
		rep, err := tuner.Run(resume)
		if err != nil {
			t.Fatalf("version %d: resume: %v", i, err)
		}
		if rep.Survivors != clean.Survivors || rep.Evaluated != clean.Evaluated {
			t.Errorf("version %d of %d: resumed survivors %d evaluated %d, clean %d and %d",
				i, len(versions), rep.Survivors, rep.Evaluated, clean.Survivors, clean.Evaluated)
		} else if !reflect.DeepEqual(scores(rep.Best), scores(clean.Best)) {
			t.Errorf("version %d of %d: resumed top-K scores %v, clean %v",
				i, len(versions), scores(rep.Best), scores(clean.Best))
		}
	}
}

// TestCheckpointRequiresExhaustive: the sampling strategies re-draw their
// own schedule per run, so checkpointing them would silently lie. Every
// entry point but the exhaustive tuner refuses a checkpoint or resume
// path, rather than running without one, and writes no file.
func TestCheckpointRequiresExhaustive(t *testing.T) {
	s, obj, _ := quadSpace(t)
	tuner, err := New(s, obj)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.ckpt")
	runs := map[string]func(Options) error{
		"random-sample": func(o Options) error {
			o.Strategy, o.Samples = RandomSample, 10
			_, err := tuner.Run(o)
			return err
		},
		"anneal": func(o Options) error {
			_, err := tuner.RunAnneal(AnnealOptions{Options: o})
			return err
		},
		"pareto": func(o Options) error {
			_, err := tuner.RunPareto(map[string]Objective{"score": obj}, o)
			return err
		},
		"hill-climb": func(o Options) error {
			o.Strategy = HillClimb
			_, err := tuner.Run(o)
			return err
		},
	}
	opts := map[string]Options{"CheckpointPath": {CheckpointPath: path}, "ResumePath": {ResumePath: path}}
	for name, run := range runs {
		for field, o := range opts {
			if err := run(o); err == nil || !strings.Contains(err.Error(), "only the exhaustive strategy") {
				t.Errorf("%s with %s: err = %v, want the exhaustive-only error", name, field, err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s with %s left %s behind (stat: %v)", name, field, path, err)
			}
		}
	}
}
