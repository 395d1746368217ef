package cli

import (
	"errors"
	"flag"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/autotune"
	"repro/internal/engine"
	"repro/internal/plan"
)

// parse registers groups on a fresh command line and parses args.
func parse(t *testing.T, args []string, register func()) {
	t.Helper()
	old := flag.CommandLine
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	t.Cleanup(func() { flag.CommandLine = old })
	register()
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func isUsage(err error) bool { return errors.As(err, new(usageError)) }

func TestPlanFlags(t *testing.T) {
	var o *plan.Options
	parse(t, nil, func() { o = PlanFlags() })
	if want := (plan.Options{TabulateBudget: plan.DefaultTabulateBudget}); !reflect.DeepEqual(*o, want) {
		t.Errorf("defaults = %+v, want %+v", *o, want)
	}
	parse(t, []string{"-no-hoisting", "-no-cse", "-no-narrow", "-no-reorder", "-no-tabulate",
		"-tabulate-budget", "99", "-verify", "-order", "b, a,c"}, func() { o = PlanFlags() })
	want := plan.Options{DisableHoisting: true, DisableCSE: true, DisableNarrowing: true,
		DisableReorder: true, DisableTabulation: true, TabulateBudget: 99, Verify: true,
		Order: []string{"b", "a", "c"}}
	if !reflect.DeepEqual(*o, want) {
		t.Errorf("parsed = %+v, want %+v", *o, want)
	}
	// An empty -order leaves the choice to the planner.
	parse(t, []string{"-order", ""}, func() { o = PlanFlags() })
	if o.Order != nil {
		t.Errorf("-order '' = %q, want nil", o.Order)
	}
}

func TestSweepAndRunFlags(t *testing.T) {
	var (
		sweep *engine.Options
		run   *Run
	)
	parse(t, []string{"-workers", "3", "-split-depth", "2", "-chunk", "1", "-checkpoint", "c",
		"-resume", "r", "-checkpoint-every", "4", "-timeout", "5s"}, func() {
		sweep, run = SweepFlags(8), RunFlags()
	})
	want := autotune.Options{Strategy: autotune.Exhaustive, Workers: 3, SplitDepth: 2, ChunkSize: 1,
		CheckpointPath: "c", ResumePath: "r", CheckpointEvery: 4}
	if got := TuneOptions(sweep, run); !reflect.DeepEqual(got, want) {
		t.Errorf("TuneOptions = %+v, want %+v", got, want)
	}
	ctx, stop := run.Context()
	defer stop()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("-timeout set no deadline")
	}
	parse(t, nil, func() { sweep, run = SweepFlags(8), RunFlags() })
	if sweep.Workers != 8 || sweep.ChunkSize != 64 || run.Enabled() || run.Every != 1 {
		t.Errorf("defaults: sweep %+v, run %+v", *sweep, *run)
	}
}

// TestLoadErrorClass: naming something that does not exist is a usage
// error (exit 2); a file that cannot be read is a runtime failure (exit 1).
func TestLoadErrorClass(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	k40c := &Device{name: "k40c"}
	for _, c := range []struct {
		name  string
		err   error
		usage bool
	}{
		{"unknown device", load((&Device{name: "bogus"}).Load()), true},
		{"missing device file", load((&Device{json: missing}).Load()), false},
		{"unknown kernel", load((&Source{GEMM: "bogus", device: k40c}).Load()), true},
		{"kernel on unknown device", load((&Source{GEMM: "dgemm", device: &Device{name: "bogus"}}).Load()), true},
		{"missing spec", load((&Source{Spec: missing}).Load()), false},
		{"no source", load((&Source{}).Load()), true},
		{"two sources", load((&Source{Spec: missing, GEMM: "dgemm"}).Load()), true},
	} {
		if c.err == nil || isUsage(c.err) != c.usage {
			t.Errorf("%s: err = %v, usage %v, want usage %v", c.name, c.err, isUsage(c.err), c.usage)
		}
	}
	if _, err := (&Source{GEMM: "dgemm_nt", scale: 32, minThreads: 64, device: k40c}).Load(); err != nil {
		t.Errorf("dgemm_nt on k40c: %v", err)
	}
}

func load[T any](_ T, err error) error { return err }
