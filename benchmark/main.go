// Command beastbench is the repository's benchmark: one workload per
// invocation, from spec text or Go builder to checked survivors, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. BENCHMARK.json at the repository root names the workloads
// and metrics; run from the root:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	bash benchmark/run.sh compare BASE.jsonl... -- NEW.jsonl...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "beastbench:", err)
		os.Exit(2)
	}
}

// specFile is BENCHMARK.json, read from the working directory.
const specFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what --out appends: the result plus quartiles and host facts,
// the input of compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Reps     int    `json:"reps"`
	Host     struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit,omitempty"`
		// Factor is the median of the run's per-rep host factors (see
		// hostspeed.go); a time measured on this host is about the
		// recorded value times Factor.
		Factor float64 `json:"factor"`
	} `json:"host"`
	result
	Quartiles map[string][3]float64 `json:"quartiles"`
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("beastbench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1: record spans and report per-layer metrics")
	out := fs.String("out", "", "also append the result, quartiles and host facts to this file as one JSON line")
	commit := fs.String("commit", "", "commit hash to record in the --out file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	wl, err := findWorkload(*workloadName)
	if err != nil {
		return err
	}
	defs := spec.EndToEnd
	if *trace == 1 {
		defs = spec.PerLayer
	}
	tmp, err := os.MkdirTemp("", "beastbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	r := &runner{
		workload: wl.name,
		sessions: wl.sessions(rand.New(rand.NewSource(*seed))),
		tmp:      tmp,
		errLog:   os.Stderr,
	}
	if *trace == 1 {
		r.tr = newTracer(wl.name)
	}
	r.oracle()
	r.rep(0) // untimed warm-up
	var reps []rec
	var traced []bool
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	for n := 1; time.Now().Before(deadline) || len(reps) < 3; n++ {
		// A traced run records spans and runs the probes in every other
		// rep; the reps in between measure what tracing costs.
		on := r.tr != nil && n%2 == 1
		if r.tr != nil {
			r.tr.on = on
		}
		r.probes = on
		reps = append(reps, r.rep(n))
		traced = append(traced, on)
	}

	units := make(map[string]string)
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		units[d.Name] = d.Unit
	}
	values := runValues(reps, traced, units)
	factor := summarize(values["host.factor"]).Median
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	quart := make(map[string][3]float64)
	fmt.Fprintf(stdout, "workload %s seed %d: %d reps, %d ops, %d failed, host factor %.4f\n",
		wl.name, *seed, len(reps), r.attempted, r.failed, factor)
	fmt.Fprintf(stdout, "%-36s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, d := range defs {
		vs, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is not measured by workload %s", d.Name, wl.name)
		}
		s := summarize(vs)
		q := [3]float64{s.Q1, s.Median, s.Q3}
		res.Metrics[d.Name] = metricValue{Value: q[1], Unit: d.Unit}
		quart[d.Name] = q
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %14.6g %4d  %s\n", d.Name, q[1], q[0], q[2], s.N, d.Unit)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		if err := writeSpans(path, wl.name, *seed, r.tr.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d spans written to %s\n", len(r.tr.spans), path)
		printLayerTable(stdout, r.tr.spans)
	}
	if *out != "" {
		rec := record{Workload: wl.name, Seed: *seed, Trace: *trace, Reps: len(reps), result: res, Quartiles: quart}
		rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
		rec.Host.Commit, rec.Host.Factor = *commit, factor
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runValues gathers each metric's per-rep values, normalized by the rep's
// host factor according to the unit BENCHMARK.json gives it, plus the
// metrics that have one value per run.
func runValues(reps []rec, traced []bool, units map[string]string) map[string][]float64 {
	values := make(map[string][]float64)
	var on, off []float64
	for i, m := range reps {
		f := m["host.factor"]
		for k, v := range m {
			values[k] = append(values[k], normalize(v, units[k], f))
		}
		if total := normalize(m["total_s"], "s", f); traced[i] {
			on = append(on, total)
		} else {
			off = append(off, total)
		}
	}
	if len(on) > 0 && len(off) > 0 {
		values["trace_overhead"] = []float64{summarize(on).Median / summarize(off).Median}
	}
	return values
}

// appendRecord appends rec to path as one JSON line, so a set of runs
// accumulates in one file.
func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resetPeakRSS restarts the kernel's peak resident set size (VmHWM) count
// at the current size, so that each rep reads its own peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, VmHWM is the run's peak so far
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
