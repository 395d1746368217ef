package cli

// The flag groups below are the one place a command-line flag is mapped
// onto a library option: its name, default, parsing and error class. Each
// group registers its flags on flag.CommandLine and returns the value
// flag.Parse fills in, so a command registers the groups it needs before
// its own flags and reads the options after parsing.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/analyze"
	"repro/internal/autotune"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/plan"
	"repro/internal/space"
	"repro/internal/speclang"
)

// PlanFlags registers the planner's ablation and debug flags and returns
// the plan.Options they select.
func PlanFlags() *plan.Options {
	o := &plan.Options{}
	flag.BoolVar(&o.DisableHoisting, "no-hoisting", false, "disable constraint hoisting: every check stays at the innermost loop (ablation)")
	flag.BoolVar(&o.DisableCSE, "no-cse", false, "disable the plan-time expression optimizer: CSE, subexpression hoisting, simplification (ablation)")
	flag.BoolVar(&o.DisableNarrowing, "no-narrow", false, "disable bounds compilation: pruning checks stay in the loop body instead of narrowing loop ranges (ablation)")
	flag.BoolVar(&o.DisableReorder, "no-reorder", false, "disable the selectivity-driven loop-order optimizer: keep the declared nest (ablation)")
	flag.BoolVar(&o.DisableTabulation, "no-tabulate", false, "disable plan-time constraint tabulation: checks evaluate expressions instead of bitset lookup tables (ablation)")
	flag.Int64Var(&o.TabulateBudget, "tabulate-budget", plan.DefaultTabulateBudget, "byte budget for constraint tables (unary bitsets plus binary row caches)")
	flag.BoolVar(&o.Verify, "verify", false, "run the IR invariant checker on every compiled plan before using it (debug)")
	flag.Func("order", "comma-separated loop order, e.g. `i,j,k` (implies -no-reorder; must respect domain dependencies)", func(s string) error {
		o.Order = splitOrder(s)
		return nil
	})
	return o
}

// splitOrder parses -order: a comma-separated iterator list, or nil for an
// empty value (the planner picks the order).
func splitOrder(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// SweepFlags registers the enumeration flags and returns the
// engine.Options they select; workers is the -workers default.
func SweepFlags(workers int) *engine.Options {
	o := &engine.Options{}
	flag.IntVar(&o.Workers, "workers", workers, "parallel enumeration workers (prefix-tile scheduling)")
	flag.IntVar(&o.SplitDepth, "split-depth", 0, "parallel tiling depth: tiles span loops 0..K-1 (0 = auto)")
	flag.IntVar(&o.ChunkSize, "chunk", 64, "innermost-loop chunk size for batched evaluation (1 = scalar)")
	return o
}

// Run holds the run-control flags: the checkpoint files and the time
// limit.
type Run struct {
	checkpoint.Config
	Timeout time.Duration
}

// RunFlags registers -checkpoint, -resume, -checkpoint-every and -timeout.
func RunFlags() *Run {
	r := &Run{}
	flag.StringVar(&r.Path, "checkpoint", "", "snapshot progress to this file as tiles complete (resume with -resume)")
	flag.StringVar(&r.Resume, "resume", "", "resume an interrupted run from this checkpoint file")
	flag.IntVar(&r.Every, "checkpoint-every", 1, "snapshot cadence in completed tiles for -checkpoint")
	flag.DurationVar(&r.Timeout, "timeout", 0, "cancel the run after this duration (0 = no limit)")
	return r
}

// Context returns the run's context. SIGINT, SIGTERM and -timeout cancel
// it instead of killing the process, so the run drains its workers,
// reports partial progress and, with -checkpoint, leaves a resumable
// snapshot behind.
func (r *Run) Context() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if r.Timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, r.Timeout)
	return ctx, func() { cancel(); stop() }
}

// Interrupted fails a run that stopped part way (exit 1). With -checkpoint
// it first names the file to continue from.
func (r *Run) Interrupted(tool string, err error) {
	if r.Path != "" {
		fmt.Printf("progress saved; continue with -resume %s\n", r.Path)
	}
	Fail(tool, err)
}

// TuneOptions returns the options of an exhaustive tuning run under the
// sweep and run-control flags.
func TuneOptions(sweep *engine.Options, run *Run) autotune.Options {
	return autotune.Options{
		Strategy: autotune.Exhaustive, Workers: sweep.Workers, SplitDepth: sweep.SplitDepth, ChunkSize: sweep.ChunkSize,
		CheckpointPath: run.Path, ResumePath: run.Resume, CheckpointEvery: run.Every,
	}
}

// Profiles holds the pprof flags.
type Profiles struct{ cpu, mem string }

// ProfileFlags registers -cpuprofile and -memprofile.
func ProfileFlags() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	return p
}

// Start begins CPU sampling at once; the heap profile is written when the
// returned stop function runs. Callers defer stop(); the same flush runs
// on the Fail and Exit paths, and running it twice is safe.
func (p *Profiles) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		cpuFile, err = os.Create(p.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if p.mem != "" {
				f, ferr := os.Create(p.mem)
				if ferr != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", ferr)
					return
				}
				runtime.GC() // settle allocations so the heap profile reflects live data
				if werr := pprof.WriteHeapProfile(f); werr != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", werr)
				}
				f.Close()
			}
		})
	}
	atExitMu.Lock()
	atExit = append(atExit, stop)
	atExitMu.Unlock()
	return stop, nil
}

// Device holds the device-model flags.
type Device struct{ name, json string }

// DeviceFlags registers -device and -device-json.
func DeviceFlags() *Device {
	d := &Device{}
	flag.StringVar(&d.name, "device", "k40c", "device model: k40c, gtx680, c2050, gtx980")
	flag.StringVar(&d.json, "device-json", "", "load device properties from a JSON file instead of -device")
	return d
}

// Load returns the -device-json description when given, else the built-in
// -device model. An unknown model name is a usage error; a missing or
// invalid JSON file is a runtime failure.
func (d *Device) Load() (*device.Properties, error) {
	if d.json != "" {
		return device.LoadJSONFile(d.json)
	}
	p, err := device.Lookup(d.name)
	if err != nil {
		return nil, usageError{err}
	}
	return p, nil
}

// Source holds the flags that name the space a command plans (a spec file
// or a built-in GEMM kernel on a device model) and the -lint switches.
type Source struct {
	Spec, GEMM        string
	scale, minThreads int64
	device            *Device
	lint, werror      bool
}

// SourceFlags registers -spec, -gemm, -scale, -min-threads, the device
// flags, -lint and -Werror.
func SourceFlags() *Source {
	s := &Source{device: DeviceFlags()}
	flag.StringVar(&s.Spec, "spec", "", "path to a spec-language file")
	flag.StringVar(&s.GEMM, "gemm", "", "built-in GEMM space instead of -spec: sgemm/dgemm/cgemm/zgemm[_nn|_nt|_tn|_tt]")
	flag.Int64Var(&s.scale, "scale", 1, "divide the device thread-dim limits by this factor (-gemm)")
	flag.Int64Var(&s.minThreads, "min-threads", 256, "occupancy floor for the GEMM soft constraints")
	flag.BoolVar(&s.lint, "lint", false, "run the static analyzer over the space, print diagnostics, and exit (status 2 on error-severity findings)")
	flag.BoolVar(&s.werror, "Werror", false, "with -lint, promote warnings to errors")
	return s
}

// Load builds the space named by -spec or -gemm. Naming neither or both,
// or an unknown GEMM kernel or device, is a usage error; an unreadable
// spec file is a runtime failure.
func (s *Source) Load() (*space.Space, error) {
	switch {
	case s.Spec != "" && s.GEMM != "":
		return nil, Usagef("use either -spec or -gemm, not both")
	case s.Spec != "":
		src, err := os.ReadFile(s.Spec)
		if err != nil {
			return nil, err
		}
		return speclang.Parse(string(src))
	case s.GEMM != "":
		cfg, err := gemm.ByName(s.GEMM)
		if err != nil {
			return nil, usageError{err}
		}
		dev, err := s.device.Load()
		if err != nil {
			return nil, err
		}
		cfg.Device = device.Scaled(dev, s.scale)
		cfg.MinThreadsPerMultiprocessor = s.minThreads
		return gemm.Space(cfg)
	}
	return nil, Usagef("one of -spec or -gemm is required")
}

// Lint carries out -lint, and returns at once without it: it prints the
// analyzer's diagnostics for sp and exits, with status 2 when the findings
// fail the run (any error, or any warning under -Werror).
func (s *Source) Lint(tool string, sp *space.Space, tabBudget int64) {
	if !s.lint {
		return
	}
	file := s.Spec
	if file == "" {
		file = "<space>"
	}
	rep, err := analyze.Analyze(sp, analyze.Options{TabulateBudget: tabBudget})
	if err != nil {
		Fail(tool, err)
	}
	fmt.Print(rep.Render(file))
	if rep.Fails(s.werror) {
		Exit(ExitUsage)
	}
	Exit(ExitOK)
}
