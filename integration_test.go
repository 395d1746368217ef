package beast

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCmd executes one of the repository's commands via `go run` and
// returns its combined output.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("command integration tests skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdBeastDescribeAndCount(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "space.bst")
	src := `
setting n = 30
a = range(1, n + 1)
b = range(a, n + 1, a)
let ab = a * b
constraint hard big: ab > 400
constraint soft odd: ab % 2 == 1
`
	if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/beast", "-spec", spec, "-describe")
	for _, want := range []string{"for a in range(1, 31)", "for b in range(a, 31, a)", "big", "odd"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "./cmd/beast", "-spec", spec, "-count", "-funnel", "-engine", "vm")
	for _, want := range []string{"engine=vm", "survivors", "pruning funnel"} {
		if !strings.Contains(out, want) {
			t.Errorf("count output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "./cmd/beast", "-spec", spec, "-dot")
	if !strings.Contains(out, "digraph") || !strings.Contains(out, `"a" -> "b"`) {
		t.Errorf("dot output malformed:\n%s", out)
	}
	out = runCmd(t, "./cmd/beast", "-spec", spec, "-tuples", "3")
	if !strings.Contains(out, "a b") {
		t.Errorf("tuples output missing header:\n%s", out)
	}
}

func TestCmdSpacegenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "space.bst")
	if err := os.WriteFile(spec, []byte("x = range(0, 8)\nconstraint soft odd: x % 2 == 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Default emission chunks the innermost loop: kills are credited by
	// popcount over the masked kill word.
	out := runCmd(t, "./cmd/spacegen", "-spec", spec, "-lang", "c", "-c-main")
	for _, want := range []string{"#include <stdint.h>", "beast_enumerate", "st->kills[0] += beast_kc"} {
		if !strings.Contains(out, want) {
			t.Errorf("generated C missing %q", want)
		}
	}
	// -chunk 1 restores scalar stepping.
	out = runCmd(t, "./cmd/spacegen", "-spec", spec, "-lang", "c", "-c-main", "-chunk", "1")
	if !strings.Contains(out, "st->kills[0]++") {
		t.Errorf("scalar (-chunk 1) C missing %q", "st->kills[0]++")
	}
	out = runCmd(t, "./cmd/spacegen", "-spec", spec, "-lang", "go", "-pkg", "demo")
	if !strings.Contains(out, "package demo") || !strings.Contains(out, "func Enumerate(") {
		t.Errorf("generated Go malformed:\n%s", out)
	}
	// GEMM mode emits the full model problem.
	out = runCmd(t, "./cmd/spacegen", "-gemm", "dgemm_nn", "-scale", "32", "-lang", "c")
	if !strings.Contains(out, "cant_reshape_a1") {
		t.Error("GEMM C missing correctness constraint")
	}
}

// buildCmd compiles one of the repository's commands into dir and returns
// the binary path. `go run` cannot be used for exit-code assertions: it
// collapses every child failure to its own exit status 1.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("command integration tests skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// runBinExpectExit runs bin expecting a specific exit code.
func runBinExpectExit(t *testing.T, wantCode int, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
		}
		code = ee.ExitCode()
	}
	if code != wantCode {
		t.Fatalf("%s %v: exit code %d, want %d\n%s", bin, args, code, wantCode, out)
	}
	return string(out)
}

func TestCmdLintContract(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "contra.bst")
	src := `i = range(1, 10)
constraint hard need_big:   i < 6
constraint hard need_small: i >= 3
constraint hard dead:       i > 100
`
	if err := os.WriteFile(bad, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Error-severity findings exit 2, and each diagnostic carries its code
	// and the source span of the offending constraint declaration.
	for _, tool := range []string{"spacegen", "beast"} {
		bin := buildCmd(t, dir, tool)
		out := runBinExpectExit(t, 2, bin, "-spec", bad, "-lint")
		for _, want := range []string{
			bad + ":3:17: error[E001]",
			bad + ":4:17: warning[W101]",
			"lint: 1 error(s), 1 warning(s)",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s -lint output missing %q:\n%s", tool, want, out)
			}
		}
	}

	// A string that does not fold away is E003 at the declaration that
	// holds it, and the passes that need a plan are skipped.
	strSpec := filepath.Join(dir, "strings.bst")
	if err := os.WriteFile(strSpec, []byte(stringSpecs["list"]), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tool := range []string{"spacegen", "beast"} {
		out := runBinExpectExit(t, 2, filepath.Join(dir, tool), "-spec", strSpec, "-lint")
		for _, want := range []string{strSpec + ":2:1: error[E003] iterator y:", "lint: 1 error(s), 0 warning(s)"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s -lint output missing %q:\n%s", tool, want, out)
			}
		}
	}

	spacegen := filepath.Join(dir, "spacegen")
	clean := filepath.Join(dir, "clean.bst")
	if err := os.WriteFile(clean, []byte("i = range(1, 10)\nj = range(1, 10)\nconstraint hard c: i * j > 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runBinExpectExit(t, 0, spacegen, "-spec", clean, "-lint")
	if !strings.Contains(out, "lint: 0 error(s), 0 warning(s)") {
		t.Errorf("clean lint output:\n%s", out)
	}

	// -Werror promotes warnings: an unused iterator alone flips the exit.
	warn := filepath.Join(dir, "warn.bst")
	if err := os.WriteFile(warn, []byte("i = range(1, 10)\nj = range(1, 10)\nconstraint hard c: i > 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runBinExpectExit(t, 0, spacegen, "-spec", warn, "-lint")
	if !strings.Contains(out, "warning[W104]") {
		t.Errorf("want W104 without -Werror:\n%s", out)
	}
	runBinExpectExit(t, 2, spacegen, "-spec", warn, "-lint", "-Werror")
}

// stringSpecs hold strings that do not fold away at plan time: a list of
// strings, an operator folding cannot apply, and a string setting ordered
// against an iterator.
var stringSpecs = map[string]string{
	"list": "x = range(0, 4)\ny = [\"p\", \"q\"]\nconstraint hard c: y == \"p\" and x > 1\n",
	"fold": "setting mode = \"abc\"\nx = range(0, 4)\nlet y = mode + 1\nconstraint hard c: x > y\n",
	"cmp":  "setting mode = \"abc\"\nx = range(0, 4)\nconstraint hard c: mode < x\n",
}

// TestCmdStringSpecsFailAtPlanTime: each string spec fails in plan.Compile
// with one message, naming the entity and its line:col, on every backend
// and schedule of `beast -count` and in both generators.
func TestCmdStringSpecsFailAtPlanTime(t *testing.T) {
	dir := t.TempDir()
	beastBin, spacegen := buildCmd(t, dir, "beast"), buildCmd(t, dir, "spacegen")
	wantMsg := map[string]string{
		"list": `plan: iterator y at 2:1: string literal "p" cannot be compiled`,
		"fold": `plan: derived variable y at 3:5: expr: invalid operand types for "+": str, int`,
		"cmp":  `plan: constraint c at 3:17: string literal "abc" cannot be compiled`,
	}
	for name, src := range stringSpecs {
		spec := filepath.Join(dir, name+".bst")
		if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var runs [][]string
		for _, eng := range []string{"interp", "vm", "compiled"} {
			for _, sched := range [][]string{{"-workers", "1"}, {"-workers", "2"}, {"-checkpoint", filepath.Join(dir, name+".ckpt")}} {
				runs = append(runs, append([]string{beastBin, "-spec", spec, "-count", "-engine", eng}, sched...))
			}
		}
		for _, lang := range []string{"c", "go"} {
			runs = append(runs, []string{spacegen, "-spec", spec, "-lang", lang})
		}
		for _, run := range runs {
			out := runBinExpectExit(t, 1, run[0], run[1:]...)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			last := lines[len(lines)-1]
			if _, msg, _ := strings.Cut(last, ": "); msg != wantMsg[name] || strings.Contains(out, "panic") {
				t.Errorf("%s %v: message %q, want %q\n%s", name, run[1:], msg, wantMsg[name], out)
			}
		}
	}
}

func TestCmdVerifyFlag(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "space.bst")
	if err := os.WriteFile(spec, []byte("x = range(0, 8)\nconstraint soft odd: x % 2 == 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCmd(t, "./cmd/beast", "-spec", spec, "-describe", "-verify")
	if !strings.Contains(out, "for x in range(0, 8)") {
		t.Errorf("-verify describe output:\n%s", out)
	}
	out = runCmd(t, "./cmd/spacegen", "-spec", spec, "-lang", "go", "-verify")
	if !strings.Contains(out, "func Enumerate(") {
		t.Errorf("-verify codegen output:\n%s", out)
	}
}

func TestCmdGemmTuneSmoke(t *testing.T) {
	out := runCmd(t, "./cmd/gemm-tune", "-scale", "32", "-topk", "3", "-strategy", "sample", "-samples", "200")
	for _, want := range []string{"dgemm_nn", "strategy=random-sample", "winner", "GFLOP/W"} {
		if !strings.Contains(out, want) {
			t.Errorf("gemm-tune output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, "./cmd/gemm-tune", "-scale", "32", "-funnel")
	if !strings.Contains(out, "partial_warps") {
		t.Errorf("funnel missing constraint:\n%s", out)
	}
}

func TestCmdBenchloopsSmoke(t *testing.T) {
	out := runCmd(t, "./cmd/benchloops", "-total", "50000", "-max-depth", "1")
	for _, want := range []string{"fig17-interp", "fig18-vm", "fig19-closure", "fig19-handwritten", "Mit/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("benchloops output missing %q:\n%s", want, out)
		}
	}
}

// flagSurface is every flag of the four planning commands with the default
// their -h listing prints (bare name: zero default), in listing order.
// spacegen's o=stdout is its usage text's own "(default stdout)".
var flagSurface = map[string]string{
	"beast": "Werror checkpoint checkpoint-every=1 chunk=64 count cpuprofile describe " +
		`device="k40c" device-json dot engine="compiled" format funnel gemm lint memprofile ` +
		"min-threads=256 no-cse no-hoisting no-narrow no-reorder no-tabulate order " +
		`protocol="default" resume scale=1 spec split-depth svg tabulate-budget=8388608 ` +
		"timeout tuples verify workers=1",
	"spacegen": `Werror c-main c-threads chunk=64 device="k40c" device-json func="Enumerate" gemm ` +
		`lang="c" lint loopbench min-threads=256 no-cse no-hoisting no-narrow no-reorder no-tabulate o=stdout ` +
		`order pkg="sweep" scale=1 spec tabulate-budget=8388608 total=100000000 verify ` +
		"write-gensweep",
	"gemm-tune": "checkpoint checkpoint-every=1 chunk=64 compare-backends cpuprofile " +
		`device="k40c" device-json energy full funnel kernel="dgemm_nn" memprofile ` +
		"min-threads=256 n=4096 no-cse no-hoisting no-narrow no-reorder no-tabulate order resume samples=2000 " +
		`scale=16 seed=1 split-depth strategy="exhaustive" table1 tabulate-budget=8388608 ` +
		"timeout topk=10 verify workers=8",
	"batched-tune": `batch=10000 checkpoint checkpoint-every=1 chunk=64 device="k40c" ` +
		`device-json kernel="cholesky" no-cse no-hoisting no-narrow no-reorder no-tabulate nrhs=16 order resume ` +
		`sizes="8,16,24,32,48,64,96,128,192,256" split-depth tabulate-budget=8388608 timeout verify workers=8`,
}

var helpDefault = regexp.MustCompile(`\(default (.*)\)$`)

// helpFlags renders a -h listing as space-separated name[=default] fields.
func helpFlags(help string) string {
	var flags []string
	for _, line := range strings.Split(help, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0][1:])
		}
		if m := helpDefault.FindStringSubmatch(line); m != nil && len(flags) > 0 {
			flags[len(flags)-1] += "=" + m[1]
		}
	}
	return strings.Join(flags, " ")
}

// TestCmdFlagSurface pins each planning command's flags and defaults, and
// the number of distinct flag names across the four.
func TestCmdFlagSurface(t *testing.T) {
	dir := t.TempDir()
	names := map[string]bool{}
	for tool, want := range flagSurface {
		bin := buildCmd(t, dir, tool)
		if got := helpFlags(runBinExpectExit(t, 0, bin, "-h")); got != want {
			t.Errorf("%s flags:\n got %s\nwant %s", tool, got, want)
		}
		for _, f := range strings.Fields(want) {
			names[strings.SplitN(f, "=", 2)[0]] = true
		}
	}
	if len(names) != 56 {
		t.Errorf("%d distinct flag names, want 56", len(names))
	}
}

func TestCmdBatchedTuneSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := buildCmd(t, dir, "batched-tune")
	out := runBinExpectExit(t, 0, bin, "-sizes", "16")
	if !regexp.MustCompile(`(?m)^ +16 +\d+ +[\d.]+ +[\d.]+ +[\d.]+x +nb=`).MatchString(out) {
		t.Errorf("no speedup row for n=16:\n%s", out)
	}
	// One checkpoint file cannot hold a multi-size sweep: a usage error,
	// before anything is written.
	ckpt := filepath.Join(dir, "c.ckpt")
	runBinExpectExit(t, 2, bin, "-sizes", "16,32", "-checkpoint", ckpt)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("rejected run left %s behind (stat: %v)", ckpt, err)
	}
	// A checkpoint that cannot be written, or a -resume file written for
	// another size, saved no progress: exit 1 without the resume hint.
	runBinExpectExit(t, 0, bin, "-sizes", "16", "-checkpoint", ckpt)
	for _, args := range [][]string{
		{"-sizes", "16", "-checkpoint", filepath.Join(dir, "nonexistent", "x.ckpt")},
		{"-sizes", "32", "-checkpoint", ckpt, "-resume", ckpt},
	} {
		if out := runBinExpectExit(t, 1, bin, args...); strings.Contains(out, "progress saved") {
			t.Errorf("batched-tune %v printed the resume hint:\n%s", args, out)
		}
	}
}

// TestCmdExitCodes pins the usage-error class across the four planning
// commands: an unknown GEMM kernel or device model, and a checkpoint asked
// of a run that cannot honour it, exit 2 without writing the file; a
// missing device file is a runtime failure (exit 1).
func TestCmdExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	ckpt := filepath.Join(dir, "x.ckpt")
	bins := map[string]string{}
	for _, c := range []struct {
		tool string
		code int
		args []string
	}{
		{"beast", 2, []string{"-gemm", "bogus"}},
		{"beast", 2, []string{"-gemm", "dgemm", "-device", "bogus"}},
		{"beast", 1, []string{"-gemm", "dgemm", "-device-json", missing}},
		{"spacegen", 2, []string{"-gemm", "bogus"}},
		{"spacegen", 2, []string{"-gemm", "dgemm", "-device", "bogus"}},
		{"spacegen", 1, []string{"-gemm", "dgemm", "-device-json", missing}},
		{"gemm-tune", 2, []string{"-kernel", "bogus"}},
		{"gemm-tune", 2, []string{"-device", "bogus"}},
		{"gemm-tune", 1, []string{"-device-json", missing}},
		{"gemm-tune", 2, []string{"-strategy", "anneal", "-checkpoint", ckpt}},
		{"gemm-tune", 2, []string{"-strategy", "sample", "-resume", ckpt}},
		{"gemm-tune", 2, []string{"-energy", "-checkpoint", ckpt}},
		{"gemm-tune", 2, []string{"-funnel", "-checkpoint", ckpt}},
		{"batched-tune", 2, []string{"-device", "bogus"}},
		{"batched-tune", 1, []string{"-device-json", missing}},
	} {
		if bins[c.tool] == "" {
			bins[c.tool] = buildCmd(t, dir, c.tool)
		}
		runBinExpectExit(t, c.code, bins[c.tool], c.args...)
		if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
			t.Fatalf("%s %v left %s behind (stat: %v)", c.tool, c.args, ckpt, err)
		}
	}

	// -tuples prints in order, so it runs one worker and says so.
	spec := filepath.Join(dir, "space.bst")
	if err := os.WriteFile(spec, []byte("x = range(0, 8)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runBinExpectExit(t, 0, bins["beast"], "-spec", spec, "-tuples", "2", "-workers", "4")
	if !strings.Contains(out, "workers=1 ") {
		t.Errorf("-tuples run does not report one worker:\n%s", out)
	}
}
