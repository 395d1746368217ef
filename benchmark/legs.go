package main

// One rep runs every session through the same pipeline, starting from spec
// text or the Go builder so that set-up is paid every time: set-up and the
// default sweep first, then the other legs in an order that rotates from
// rep to rep, so that host drift lands on every leg alike. Each leg is one
// operation; it fails on a returned error or on any output that differs
// from the oracle or from the default sweep.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analyze"
	"repro/internal/autotune"
	"repro/internal/checkpoint"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/space"
	"repro/internal/speclang"
)

// sweepOptions are the CLI defaults plus one worker per core of the
// reference host.
func sweepOptions(onTuple func([]int64) bool) engine.Options {
	return engine.Options{ChunkSize: 64, Workers: 2, OnTuple: onTuple}
}

// rec holds one rep's metric values, summed over its sessions.
type rec map[string]float64

func (m rec) add(name string, d time.Duration) { m[name] += d.Seconds() }

type runner struct {
	workload string
	sessions []*session
	tmp      string
	tr       *tracer // nil unless the run is traced
	// probes turns on the traced-only measurements for the current rep.
	probes bool

	// saves collects the current rep's snapshot times.
	saves []time.Duration

	attempted, failed int
	errLog            io.Writer
}

// op counts one operation and reports whether it failed.
func (r *runner) op(s *session, leg string, err error) bool {
	r.attempted++
	if err == nil {
		return false
	}
	r.failed++
	fmt.Fprintf(r.errLog, "FAIL %s/%s %s: %v\n", r.workload, s.name, leg, err)
	return true
}

// timed runs f inside a span and returns its wall time.
func (r *runner) timed(name string, f func() error) (time.Duration, error) {
	i := r.tr.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.tr.end(i, start, d, nil)
	return d, err
}

// sweep runs one enumeration inside a span. In probe reps it also records
// the run's allocations under the backend's name.
func (r *runner) sweep(ctx context.Context, m rec, backend string, e engine.Engine, opts engine.Options) (time.Duration, *engine.Stats, error) {
	var before runtime.MemStats
	if r.probes {
		runtime.ReadMemStats(&before)
	}
	i := r.tr.begin("engine.RunContext." + backend)
	start := time.Now()
	st, err := e.RunContext(ctx, opts)
	d := time.Since(start)
	var counts map[string]float64
	if st != nil {
		counts = map[string]float64{"visits": float64(st.TotalVisits()), "survivors": float64(st.Survivors)}
	}
	r.tr.end(i, start, d, counts)
	if r.probes {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		m["engine.alloc_bytes."+backend] += float64(after.TotalAlloc - before.TotalAlloc)
		m["engine.allocs."+backend] += float64(after.Mallocs - before.Mallocs)
	}
	return d, st, err
}

// newSpace builds a session's space from its source.
func (s *session) newSpace() (*space.Space, error) {
	if s.text != "" {
		return speclang.Parse(s.text)
	}
	return s.build()
}

func (s *session) frontName() string {
	if s.text != "" {
		return "speclang.Parse"
	}
	return "builder"
}

// engineStream streams a builder session's survivors from a scalar
// compiled run. Used only where a pinned survivor set checks the stream.
func engineStream(s *session, yield func([]int64)) error {
	sp, err := s.newSpace()
	if err != nil {
		return err
	}
	prog, err := plan.Compile(sp, plan.Options{})
	if err != nil {
		return err
	}
	comp, err := engine.NewCompiled(prog)
	if err != nil {
		return err
	}
	_, err = comp.Run(engine.Options{OnTuple: func(t []int64) bool { yield(t); return true }})
	return err
}

// oracle computes each session's expected output once per process.
func (r *runner) oracle() {
	for _, s := range r.sessions {
		e, err := expect(s.reference, s.objective)
		if err == nil && s.pinned != "" {
			err = checkPin(s.pinned, e)
		}
		if err == nil && e.survivors == 0 {
			err = errors.New("reference has no survivors")
		}
		if s.text != "" && err == nil {
			var toks []speclang.Tok
			toks, err = speclang.Lex(s.text)
			s.tokens = len(toks)
		}
		if !r.op(s, "oracle", err) {
			s.want = e
		}
	}
}

// rep runs every session once and returns the rep's metric values.
func (r *runner) rep(n int) rec {
	m := rec{}
	if r.tr != nil {
		r.tr.rep, r.tr.spec = n, ""
	}
	runtime.GC()
	resetPeakRSS()
	i := r.tr.begin("rep")
	start := time.Now()
	// The calibration kernel runs before every session, so that the rep's
	// host factor samples the host's speed across the whole rep.
	calls := calibCalls(len(r.sessions))
	var calib time.Duration
	for _, s := range r.sessions {
		if s.want != nil {
			calib += calibrate(calls)
			m["host.calib_calls"] += float64(calls)
			r.session(n, s, m)
		}
	}
	r.tr.end(i, start, time.Since(start), nil)
	m["host.factor"] = calib.Seconds() / (m["host.calib_calls"] * calibRef)
	m["peak_rss_mb"] = peakRSSMB()
	derive(m)
	if len(r.saves) > 0 {
		slices.Sort(r.saves)
		m["checkpoint.save_p50_s"] = r.saves[len(r.saves)/2].Seconds()
		r.saves = r.saves[:0]
	}
	return m
}

// session runs one session's legs.
func (r *runner) session(n int, s *session, m rec) {
	if r.tr != nil {
		r.tr.spec = s.name
	}
	si := r.tr.begin("spec")
	sessionStart := time.Now()
	defer func() { r.tr.end(si, sessionStart, time.Since(sessionStart), nil) }()

	// Every leg starts from a collected heap, so no leg pays for the
	// garbage of the one before it.
	runtime.GC()

	// Set-up and the default sweep, measured as one span: spec → survivors.
	var (
		sp   *space.Space
		prog *plan.Program
		comp *engine.Compiled
	)
	start := time.Now()
	dFront, err := r.timed(s.frontName(), func() (err error) { sp, err = s.newSpace(); return })
	if r.op(s, "setup", err) {
		return
	}
	dCompile, err := r.timed("plan.Compile", func() (err error) { prog, err = plan.Compile(sp, plan.Options{}); return })
	if r.op(s, "setup", err) {
		return
	}
	dNew, err := r.timed("engine.NewCompiled", func() (err error) { comp, err = engine.NewCompiled(prog); return })
	if r.op(s, "setup", err) {
		return
	}
	setup := time.Since(start)
	var h setHash
	dSweep, base, err := r.sweep(context.Background(), m, "compiled", comp, sweepOptions(h.add))
	total := time.Since(start)
	if r.op(s, "sweep", firstErr(err, s.checkHash("compiled", base, &h))) {
		return
	}
	m.add("setup_s", setup)
	m.add("total_s", total)
	m.add("sweep_s", dSweep)
	m.add("frontend.build_s", dFront)
	m.add("plan.compile_s", dCompile)
	m.add("engine.new_s", dNew)
	m["engine.visits.compiled"] += float64(base.TotalVisits())
	planCounts(m, prog, base)
	m["speclang.tokens"] += float64(s.tokens)

	c := &legCtx{r: r, s: s, m: m, sp: sp, prog: prog, comp: comp, base: base, sweepTime: dSweep}
	type leg struct {
		name string
		run  func() error
	}
	legs := []leg{{"vm", c.vm}, {"interp", c.interp}, {"scalar", c.scalar}, {"lint", c.lint}, {"tune", c.tune}}
	if !s.tiny {
		legs = append(legs, leg{"checkpointed", c.checkpointed}, leg{"resumed", c.resumed})
	}
	if s.codegen {
		legs = append(legs, leg{"codegen", c.codegen})
	}
	for k := range legs {
		l := legs[(k+n)%len(legs)]
		runtime.GC()
		r.op(s, l.name, l.run())
	}
	if r.probes {
		runtime.GC()
		r.op(s, "probes", c.probes())
	}
}

// legCtx is one session's state shared by its legs.
type legCtx struct {
	r         *runner
	s         *session
	m         rec
	sp        *space.Space
	prog      *plan.Program
	comp      *engine.Compiled
	base      *engine.Stats
	sweepTime time.Duration
}

func (c *legCtx) backend(name, metric string, e engine.Engine, opts engine.Options) error {
	var h setHash
	opts.OnTuple = h.add
	d, st, err := c.r.sweep(context.Background(), c.m, name, e, opts)
	if err != nil {
		return err
	}
	c.m.add(metric, d)
	c.m["engine.visits."+name] += float64(st.TotalVisits())
	if name == "interp" {
		c.m["engine.temp_hits"] += float64(st.TotalTempHits())
	}
	return firstErr(sameCounters(c.base, st), c.s.checkHash(name, st, &h))
}

func (c *legCtx) vm() error {
	return c.backend("vm", "sweep_vm_s", engine.NewVM(c.prog), sweepOptions(nil))
}

func (c *legCtx) interp() error {
	return c.backend("interp", "sweep_interp_s", engine.NewInterp(c.prog), sweepOptions(nil))
}

// scalar runs the library defaults: scalar stepping, one worker.
func (c *legCtx) scalar() error {
	return c.backend("scalar", "sweep_scalar_s", c.comp, engine.Options{})
}

// saveTimer wraps a checkpoint writer's OnSnapshot to time each save.
type saveTimer struct {
	mu sync.Mutex
	d  []time.Duration
}

func (t *saveTimer) wrap(cfg *engine.CheckpointConfig) *engine.CheckpointConfig {
	inner := cfg.OnSnapshot
	cfg.OnSnapshot = func(s *engine.Snapshot) error {
		start := time.Now()
		err := inner(s)
		d := time.Since(start)
		t.mu.Lock()
		t.d = append(t.d, d)
		t.mu.Unlock()
		return err
	}
	return cfg
}

// ckptSnapshots is about how many snapshots a checkpointed run writes
// before its final one. Each snapshot waits for an fsync, whose latency on
// a shared disk drifts by tens of percent from minute to minute; at one
// snapshot per tile (the CLI default) the disk sets the time of these
// legs, and no bound holds. At this cadence the run's own work does. The
// traced probe measures the per-tile cadence.
const ckptSnapshots = 4

// ckptEvery is the snapshot cadence, in tiles, of the session's
// checkpointed runs.
func (c *legCtx) ckptEvery() int {
	return max(1, c.base.Tiles/ckptSnapshots)
}

// checkpointedSweep runs the default sweep with a snapshot into path every
// `every` tiles and returns its wall time and the time of each save.
func (c *legCtx) checkpointedSweep(path string, every int) (time.Duration, []time.Duration, error) {
	var h setHash
	var saved saveTimer
	start := time.Now()
	opts := sweepOptions(h.add)
	fp := checkpoint.Fingerprint(c.prog, c.comp.Name(), opts)
	opts.Checkpoint = saved.wrap(checkpoint.NewWriter(path, fp, every, nil))
	_, st, err := c.r.sweep(context.Background(), c.m, "checkpointed", c.comp, opts)
	d := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	return d, saved.d, firstErr(sameCounters(c.base, st), c.s.checkHash("checkpointed", st, &h))
}

func (c *legCtx) checkpointed() error {
	path := filepath.Join(c.r.tmp, "sweep.ckpt")
	defer os.Remove(path)
	d, saves, err := c.checkpointedSweep(path, c.ckptEvery())
	if err != nil {
		return err
	}
	c.m.add("ckpt_sweep_s", d)
	c.m.add("checkpoint.plain_sweep_s", c.sweepTime)
	c.m["checkpoint.snapshots"] += float64(len(saves))
	for _, s := range saves {
		c.m.add("checkpoint.save_s", s)
	}
	c.r.saves = append(c.r.saves, saves...)
	if fi, err := os.Stat(path); err == nil {
		c.m["checkpoint.bytes"] += float64(fi.Size())
	}
	return nil
}

// interruptAt returns the survivor count at which a run is interrupted.
func (s *session) interruptAt() int64 {
	return max(1, int64(s.frac*float64(s.want.survivors)))
}

// resumed interrupts a checkpointed sweep at the seeded point by
// cancelling its context from inside OnTuple, then resumes it from the
// checkpoint file. Both legs count: the interrupted part, the load, and
// the resumed part. The two partial hashes must add up to the full one,
// which holds only if every survivor is delivered exactly once.
func (c *legCtx) resumed() error {
	path := filepath.Join(c.r.tmp, "resume.ckpt")
	defer os.Remove(path)
	k := c.s.interruptAt()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first, second setHash
	start := time.Now()
	opts := sweepOptions(func(t []int64) bool {
		if first.n.Add(1) == k {
			cancel()
		}
		first.sum.Add(tupleHash(t))
		return true
	})
	fp := checkpoint.Fingerprint(c.prog, c.comp.Name(), opts)
	opts.Checkpoint = checkpoint.NewWriter(path, fp, c.ckptEvery(), nil)
	if _, _, err := c.r.sweep(ctx, c.m, "interrupted", c.comp, opts); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	var rs *engine.ResumeState
	dLoad, err := c.r.timed("checkpoint.Resume", func() (err error) { rs, _, err = checkpoint.Resume(path, fp); return })
	if err != nil {
		return err
	}
	opts = sweepOptions(second.add)
	opts.Checkpoint = checkpoint.NewWriter(path, fp, c.ckptEvery(), nil)
	opts.Resume = rs
	_, st, err := c.r.sweep(context.Background(), c.m, "resumed", c.comp, opts)
	d := time.Since(start)
	if err != nil {
		return err
	}
	c.m.add("resume_s", d)
	c.m.add("checkpoint.resume_load_s", dLoad)
	var both setHash
	both.n.Store(first.n.Load() + second.n.Load())
	both.sum.Store(first.sum.Load() + second.sum.Load())
	return firstErr(sameCounters(c.base, st), c.s.checkHash("interrupted+resumed", st, &both))
}

// lintRuns is how many times the lint leg analyzes the session. One
// analysis takes a fraction of a millisecond, so short that one scheduler
// pause can double it; the leg reports the median.
const lintRuns = 5

func (c *legCtx) lint() error {
	var rep *analyze.Report
	times := make([]time.Duration, lintRuns)
	for i := range times {
		d, err := c.r.timed("analyze.Analyze", func() (err error) { rep, err = analyze.Analyze(c.sp, analyze.Options{}); return })
		if err != nil {
			return err
		}
		times[i] = d
	}
	slices.Sort(times)
	d := times[lintRuns/2]
	c.m.add("lint_s", d)
	c.m.add("analyze.lint_s", d)
	c.m["analyze.diagnostics"] += float64(len(rep.Diags))
	if rep.Errors() > 0 {
		return fmt.Errorf("lint reports errors:\n%s", rep.Render(c.s.name))
	}
	return nil
}

// tuneOptions is an exhaustive top-K tuning run on the sweep settings,
// checkpointed into path (if set) every `every` tiles.
func tuneOptions(path string, every int) autotune.Options {
	return autotune.Options{Strategy: autotune.Exhaustive, TopK: topK, Workers: 2, ChunkSize: 64,
		CheckpointPath: path, CheckpointEvery: every}
}

// tune is the tuner user's crash-safe path: autotune.New, an exhaustive
// checkpointed run interrupted at the seeded point by cancelling its
// context from inside the objective, and the run resumed to the end. A
// tiny session is tuned in one run without a checkpoint (see session.tiny).
func (c *legCtx) tune() error {
	path := filepath.Join(c.r.tmp, "tune.ckpt")
	defer os.Remove(path)
	k := c.s.interruptAt()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	obj := func(t []int64) float64 {
		if calls.Add(1) == k {
			cancel()
		}
		return c.s.objective(t)
	}
	var (
		tu  *autotune.Tuner
		rep *autotune.Report
	)
	start := time.Now()
	if _, err := c.r.timed("autotune.New", func() (err error) { tu, err = autotune.New(c.sp, obj); return }); err != nil {
		return err
	}
	if c.s.tiny {
		if _, err := c.r.timed("autotune.Run", func() (err error) { rep, err = tu.Run(tuneOptions("", 0)); return }); err != nil {
			return err
		}
	} else {
		_, err := c.r.timed("autotune.RunContext.interrupted", func() error {
			_, err := tu.RunContext(ctx, tuneOptions(path, c.ckptEvery()))
			return err
		})
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		opts := tuneOptions(path, c.ckptEvery())
		opts.ResumePath = path
		if _, err := c.r.timed("autotune.Run.resumed", func() (err error) { rep, err = tu.Run(opts); return }); err != nil {
			return err
		}
	}
	d := time.Since(start)
	c.m.add("tune_s", d)
	c.m["autotune.objective_calls"] += float64(calls.Load())
	c.m["autotune.evaluated"] += float64(rep.Evaluated)
	want := c.s.want
	if rep.Survivors != want.survivors || rep.Evaluated != want.survivors {
		return fmt.Errorf("tuner: %d survivors, %d evaluated, want %d each", rep.Survivors, rep.Evaluated, want.survivors)
	}
	got := make([]float64, len(rep.Best))
	for i, b := range rep.Best {
		got[i] = b.Score
	}
	if !slices.Equal(got, want.top) {
		return fmt.Errorf("tuner: top-%d scores %v, want %v", topK, got, want.top)
	}
	return nil
}

// codegen emits C for the session, links it with cHarness, compiles it with
// cc -O2 and runs the sweep generatedRuns times in one process. The
// binary's survivors, visits and per-constraint kills must equal the
// default sweep's, and its delivered set the oracle's.
func (c *legCtx) codegen() error {
	dir, err := os.MkdirTemp(c.r.tmp, "c-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	src, bin := filepath.Join(dir, "sweep.c"), filepath.Join(dir, "sweep")
	var text string
	start := time.Now()
	dEmit, err := c.r.timed("codegen.C", func() (err error) {
		text, err = codegen.C(c.prog, codegen.COptions{ChunkSize: 64})
		return
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(src, []byte(text+cHarness), 0o644); err != nil {
		return err
	}
	dCC, err := c.r.timed("cc", func() error {
		_, err := runProcess("cc", "-O2", "-std=c99", "-D_POSIX_C_SOURCE=199309L", "-o", bin, src)
		return err
	})
	if err != nil {
		return err
	}
	emitted := time.Since(start)
	var out []byte
	if _, err := c.r.timed("generated", func() (err error) {
		out, err = runProcess(bin, strconv.Itoa(generatedRuns))
		return
	}); err != nil {
		return err
	}
	d, err := c.checkGenerated(out)
	if err != nil {
		return err
	}
	c.m.add("codegen_s", emitted)
	c.m.add("generated_c_s", d)
	c.m.add("codegen.c_emit_s", dEmit)
	c.m.add("codegen.cc_s", dCC)
	c.m["codegen.c_bytes"] += float64(len(text))
	c.m["codegen.visits"] += float64(c.base.TotalVisits())
	return nil
}

// generatedRuns is how many sweeps one run of the emitted binary times.
const generatedRuns = 9

// cHarness is the main() the benchmark links with the emitted sweep, as a
// user embedding it would. It runs the sweep argv[1] times, prints each
// run's time from the monotonic clock (so the time excludes process
// start-up, which on a shared host is most of a millisecond sweep's wall
// time and varies with it), and hashes the delivered tuples with the same
// set hash as the Go side.
const cHarness = `
#include <time.h>

static uint64_t bench_mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

typedef struct { i64 n; uint64_t sum; } bench_set;

static void bench_on_tuple(const i64 *vals, int n, void *ctx) {
    bench_set *s = ctx;
    uint64_t h = (uint64_t)n;
    for (int i = 0; i < n; i++) h = bench_mix64((h ^ (uint64_t)vals[i]) + 0x9e3779b97f4a7c15ULL);
    s->n++;
    s->sum += h;
}

int main(int argc, char **argv) {
    int runs = argc > 1 ? atoi(argv[1]) : 1;
    beast_stats st;
    bench_set set;
    for (int r = 0; r < runs; r++) {
        struct timespec t0, t1;
        memset(&st, 0, sizeof st);
        memset(&set, 0, sizeof set);
        clock_gettime(CLOCK_MONOTONIC, &t0);
        beast_enumerate(&st, bench_on_tuple, &set);
        clock_gettime(CLOCK_MONOTONIC, &t1);
        printf("ns %lld\n", (long long)(t1.tv_sec - t0.tv_sec) * 1000000000LL + (t1.tv_nsec - t0.tv_nsec));
    }
    printf("survivors %lld\n", (long long)st.survivors);
    i64 visits = 0;
    for (size_t i = 0; i < sizeof st.visits / sizeof st.visits[0]; i++) visits += st.visits[i];
    printf("visits %lld\n", (long long)visits);
    for (size_t i = 0; i < sizeof st.kills / sizeof st.kills[0]; i++) printf("kill %zu %lld\n", i, (long long)st.kills[i]);
    printf("delivered %lld %llu\n", (long long)set.n, (unsigned long long)set.sum);
    return 0;
}
`

// runProcess runs a child process to completion and returns its standard
// output. A timeout kills a hung compiler or binary, so none outlives the
// run.
func runProcess(name string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", filepath.Base(name), err, stderr.Bytes())
	}
	return out, nil
}

// checkGenerated parses what cHarness prints, checks it against the
// default sweep and the oracle, and returns the median sweep time.
func (c *legCtx) checkGenerated(out []byte) (time.Duration, error) {
	var times []time.Duration
	kills := make(map[int]int64)
	var survivors, visits, delivered int64 = -1, -1, -1
	var hash uint64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 2 && f[0] == "ns":
			ns, _ := strconv.ParseInt(f[1], 10, 64)
			times = append(times, time.Duration(ns))
		case len(f) == 2 && f[0] == "survivors":
			survivors, _ = strconv.ParseInt(f[1], 10, 64)
		case len(f) == 2 && f[0] == "visits":
			visits, _ = strconv.ParseInt(f[1], 10, 64)
		case len(f) == 3 && f[0] == "kill":
			i, _ := strconv.Atoi(f[1])
			kills[i], _ = strconv.ParseInt(f[2], 10, 64)
		case len(f) == 3 && f[0] == "delivered":
			delivered, _ = strconv.ParseInt(f[1], 10, 64)
			hash, _ = strconv.ParseUint(f[2], 10, 64)
		}
	}
	if len(times) != generatedRuns {
		return 0, fmt.Errorf("generated C: %d timed runs, want %d", len(times), generatedRuns)
	}
	if survivors != c.base.Survivors || visits != c.base.TotalVisits() {
		return 0, fmt.Errorf("generated C: %d survivors, %d visits; engine: %d, %d",
			survivors, visits, c.base.Survivors, c.base.TotalVisits())
	}
	for i, con := range c.prog.Constraints {
		if kills[i] != c.base.Kills[i] {
			return 0, fmt.Errorf("generated C: %d kills by %s, engine %d", kills[i], con.Name, c.base.Kills[i])
		}
	}
	if delivered != c.s.want.survivors || hash != c.s.want.hash {
		return 0, fmt.Errorf("generated C: %d delivered (hash %#x); reference has %d (hash %#x)",
			delivered, hash, c.s.want.survivors, c.s.want.hash)
	}
	slices.Sort(times)
	return times[len(times)/2], nil
}

// probes are the traced-only measurements: the same Compile without
// reorder, the default sweep on one worker, an uninterrupted tune without
// checkpoints against the bare sweep, and a sweep checkpointed after every
// tile, the CLI's default cadence.
func (c *legCtx) probes() error {
	d, err := c.r.timed("plan.Compile.declared", func() error {
		_, err := plan.Compile(c.sp, plan.Options{DisableReorder: true})
		return err
	})
	if err != nil {
		return err
	}
	c.m.add("plan.compile_declared_s", d)
	var h setHash
	opts := sweepOptions(h.add)
	opts.Workers = 1
	d, st, err := c.r.sweep(context.Background(), c.m, "one_worker", c.comp, opts)
	if err != nil {
		return err
	}
	c.m.add("engine.one_worker_s", d)
	if err := firstErr(sameCounters(c.base, st), c.s.checkHash("one worker", st, &h)); err != nil {
		return err
	}
	tu := &autotune.Tuner{Prog: c.prog, Objective: c.s.objective}
	d, err = c.r.timed("autotune.Run.plain", func() error {
		_, err := tu.Run(tuneOptions("", 0))
		return err
	})
	if err != nil {
		return err
	}
	c.m.add("autotune.overhead_s", d-c.sweepTime)
	if c.s.tiny {
		return nil
	}
	path := filepath.Join(c.r.tmp, "per-tile.ckpt")
	defer os.Remove(path)
	d, _, err = c.checkpointedSweep(path, 1)
	if err != nil {
		return err
	}
	c.m.add("checkpoint.per_tile_sweep_s", d)
	return nil
}

// checkHash compares a run's survivors and delivered set with the oracle.
func (s *session) checkHash(leg string, st *engine.Stats, h *setHash) error {
	if st == nil {
		return fmt.Errorf("%s: no stats", leg)
	}
	if st.Survivors != s.want.survivors || h.n.Load() != s.want.survivors || h.sum.Load() != s.want.hash {
		return fmt.Errorf("%s: %d survivors, %d delivered (hash %#x); reference has %d (hash %#x)",
			leg, st.Survivors, h.n.Load(), h.sum.Load(), s.want.survivors, s.want.hash)
	}
	return nil
}

// sameCounters reports a difference in survivors, per-depth visits or
// per-constraint kills between two runs of one program.
func sameCounters(want, got *engine.Stats) error {
	switch {
	case got.Survivors != want.Survivors:
		return fmt.Errorf("survivors %d, default sweep %d", got.Survivors, want.Survivors)
	case !slices.Equal(got.LoopVisits, want.LoopVisits):
		return fmt.Errorf("visits %v, default sweep %v", got.LoopVisits, want.LoopVisits)
	case !slices.Equal(got.Kills, want.Kills):
		return fmt.Errorf("kills %v, default sweep %v", got.Kills, want.Kills)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// planCounts records the plan's shape and the default sweep's counters.
func planCounts(m rec, prog *plan.Program, st *engine.Stats) {
	m["sessions"]++
	m["plan.loops"] += float64(len(prog.Loops))
	steps := len(prog.Prelude)
	for _, lp := range prog.Loops {
		steps += len(lp.Steps)
	}
	m["plan.steps"] += float64(steps)
	m["plan.temps"] += float64(len(prog.Temps))
	var tables, tableBytes int64
	if tab := prog.Tab; tab != nil {
		tables, tableBytes = int64(len(tab.Tables)), tab.TableBytes
	}
	m["plan.tables"] += float64(tables)
	m["plan.table_bytes"] += float64(tableBytes)
	m["plan.split_depth_sum"] += float64(st.SplitDepth)
	var applied float64
	if ri := prog.Reorder; ri != nil {
		if ri.Applied {
			applied = 1
		}
		m["plan.estimated_visits"] += ri.EstimatedVisits
		m["plan.estimated_actual_visits"] += float64(st.TotalVisits())
	}
	m["plan.reorder_applied"] += applied
	g := prog.Graph
	m["dag.vertices"] += float64(g.Len())
	for i := 0; i < g.Len(); i++ {
		m["dag.edges"] += float64(len(g.Successors(g.Name(i))))
	}
	if lv, err := g.Levels(); err == nil {
		m["dag.levels"] += float64(len(lv))
	}
	m["engine.visits"] += float64(st.TotalVisits())
	m["engine.survivors"] += float64(st.Survivors)
	m["engine.skipped"] += float64(st.TotalIterationsSkipped())
	m["engine.chunks"] += float64(st.ChunksEvaluated)
	m["engine.lanes_masked"] += float64(st.LanesMasked)
	m["engine.tabulated"] += float64(st.TabulatedChecks)
	for _, ch := range st.Checks {
		m["engine.checks"] += float64(ch)
	}
	m["engine.row_cache_hits"] += float64(st.RowCacheHits)
	m["engine.tiles"] += float64(st.Tiles)
}

// derive turns a rep's sums into the ratio metrics.
func derive(m rec) {
	ratio := func(name string, num, den float64) {
		m[name] = 0
		if den != 0 {
			m[name] = num / den
		}
	}
	for b, t := range map[string]string{"compiled": "sweep_s", "vm": "sweep_vm_s", "interp": "sweep_interp_s", "scalar": "sweep_scalar_s"} {
		ratio("engine.visits_per_s."+b, m["engine.visits."+b], m[t])
	}
	ratio("engine.useful_ratio", m["engine.survivors"], m["engine.visits"])
	ratio("engine.narrowed_share", m["engine.skipped"], m["engine.skipped"]+m["engine.visits"])
	ratio("engine.tab_share", m["engine.tabulated"], m["engine.checks"])
	ratio("plan.split_depth", m["plan.split_depth_sum"], m["sessions"])
	ratio("plan.visit_estimate_ratio", m["plan.estimated_visits"], m["plan.estimated_actual_visits"])
	ratio("checkpoint.overhead", m["ckpt_sweep_s"], m["checkpoint.plain_sweep_s"])
	ratio("codegen.generated_visits_per_s", m["codegen.visits"], m["generated_c_s"])
	ratio("autotune.evaluated_per_s", m["autotune.evaluated"], m["tune_s"])
	if d, ok := m["plan.compile_declared_s"]; ok {
		ratio("plan.reorder_share", m["plan.compile_s"]-d, m["plan.compile_s"])
	}
	if d, ok := m["engine.one_worker_s"]; ok {
		ratio("engine.parallel_speedup", d, m["sweep_s"])
	}
	if d, ok := m["checkpoint.per_tile_sweep_s"]; ok {
		ratio("checkpoint.per_tile_overhead", d, m["checkpoint.plain_sweep_s"])
	}
}
