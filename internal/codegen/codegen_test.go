package codegen

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/gemm"
	"repro/internal/plan"
	"repro/internal/space"
)

// featureSpace exercises every translatable construct: dependent ranges,
// negative literal steps, dynamic steps, conditional domains (range/range
// and list/list), closed algebra, tables, min/max/abs, ternaries, and
// short-circuit logic.
func featureSpace(t *testing.T) *space.Space {
	t.Helper()
	s := space.New()
	s.IntSetting("n", 10)
	s.IntSetting("mode", 1)
	s.Range("a", expr.IntLit(1), expr.Add(expr.NewRef("n"), expr.IntLit(1)))
	s.RangeStep("down", expr.NewRef("a"), expr.IntLit(0), expr.IntLit(-2))
	// Dynamic step (depends on a).
	s.RangeStep("b", expr.IntLit(0), expr.NewRef("n"), expr.NewRef("a"))
	// Conditional over an unfoldable condition (depends on iterator a).
	s.DomainIter("c", space.NewCond(
		expr.Gt(expr.NewRef("a"), expr.IntLit(5)),
		space.NewRange(expr.IntLit(0), expr.IntLit(3)),
		space.NewRange(expr.IntLit(1), expr.IntLit(4)),
	))
	s.DomainIter("cl", space.NewCond(
		expr.Eq(expr.Mod(expr.NewRef("a"), expr.IntLit(2)), expr.IntLit(0)),
		space.NewList(expr.IntLit(7), expr.NewRef("a")),
		space.NewList(expr.IntLit(9), expr.IntLit(11)),
	))
	// Closed algebra domain.
	s.DomainIter("alg", space.Union(space.NewIntList(1, 3), space.NewIntList(3, 5)))
	s.Derived("t", &expr.Table2D{
		Name: "T", Data: [][]int64{{1, 2}, {3, 4}}, Default: -1,
		Row: expr.Mod(expr.NewRef("a"), expr.IntLit(3)), Col: expr.Mod(expr.NewRef("b"), expr.IntLit(2)),
	})
	s.Derived("m", expr.MaxOf(expr.NewRef("a"), expr.NewRef("b"), expr.Abs(expr.Neg(expr.NewRef("c")))))
	s.Constrain("k1", space.Hard,
		expr.And(expr.Gt(expr.NewRef("m"), expr.IntLit(8)), expr.Ne(expr.NewRef("t"), expr.IntLit(-1))))
	s.Constrain("k2", space.Soft,
		expr.If(expr.Lt(expr.NewRef("down"), expr.IntLit(3)),
			expr.Eq(expr.Mod(expr.Add(expr.NewRef("cl"), expr.NewRef("alg")), expr.IntLit(5)), expr.IntLit(0)),
			expr.BoolLit(false)))
	return s
}

func compileProg(t *testing.T, s *space.Space) *plan.Program {
	t.Helper()
	prog, err := plan.Compile(s, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func engineStats(t *testing.T, prog *plan.Program) *engine.Stats {
	t.Helper()
	c, err := engine.NewCompiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func haveCC(t *testing.T) string {
	t.Helper()
	for _, cc := range []string{"cc", "gcc", "clang"} {
		if path, err := exec.LookPath(cc); err == nil {
			return path
		}
	}
	t.Skip("no C compiler available")
	return ""
}

// buildRunC compiles emitted C at -O2 with the given extra compiler flags,
// runs it with args and returns its output.
func buildRunC(t *testing.T, src string, ccFlags []string, args ...string) string {
	t.Helper()
	cc := haveCC(t)
	dir := t.TempDir()
	cpath := filepath.Join(dir, "sweep.c")
	if err := os.WriteFile(cpath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "sweep")
	cmd := exec.Command(cc, append([]string{"-O2", "-std=c99", "-o", bin, cpath, "-lpthread"}, ccFlags...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cc failed: %v\n%s\n--- source ---\n%s", err, out, numberLines(src))
	}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("generated binary failed: %v\n%s", err, out)
	}
	return string(out)
}

// runGeneratedC compiles and runs emitted C, returning survivors, visits,
// and per-constraint kills parsed from its stdout.
func runGeneratedC(t *testing.T, src string, args ...string) (survivors, visits int64, kills map[string]int64) {
	t.Helper()
	return parseSweep(buildRunC(t, src, nil, args...))
}

// parseSweep reads the statistics an emitted C main() prints.
func parseSweep(out string) (survivors, visits int64, kills map[string]int64) {
	kills = make(map[string]int64)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "survivors":
			survivors, _ = strconv.ParseInt(f[1], 10, 64)
		case len(f) == 2 && f[0] == "visits":
			visits, _ = strconv.ParseInt(f[1], 10, 64)
		case len(f) == 3 && f[0] == "kill":
			kills[f[1]], _ = strconv.ParseInt(f[2], 10, 64)
		}
	}
	return survivors, visits, kills
}

func numberLines(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = fmt.Sprintf("%4d  %s", i+1, lines[i])
	}
	return strings.Join(lines, "\n")
}

func TestGeneratedCMatchesEngine(t *testing.T) {
	prog := compileProg(t, featureSpace(t))
	want := engineStats(t, prog)
	// Chunked emission (8 exercises block remainders, 64 the full-word
	// mask) must produce the exact same counters as scalar emission.
	for _, chunk := range []int{0, 8, 64} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			src, err := C(prog, COptions{Main: true, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			survivors, visits, kills := runGeneratedC(t, src)
			if survivors != want.Survivors {
				t.Errorf("C survivors = %d, want %d", survivors, want.Survivors)
			}
			if visits != want.TotalVisits() {
				t.Errorf("C visits = %d, want %d", visits, want.TotalVisits())
			}
			for i, c := range prog.Constraints {
				if kills[c.Name] != want.Kills[i] {
					t.Errorf("C kills[%s] = %d, want %d", c.Name, kills[c.Name], want.Kills[i])
				}
			}
		})
	}
}

func TestGeneratedCGEMM(t *testing.T) {
	cfg := gemm.Default()
	dev := *device.TeslaK40c()
	dev.MaxThreadsDimX = 32
	dev.MaxThreadsDimY = 32
	cfg.Device = &dev
	cfg.MinThreadsPerMultiprocessor = 64
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := compileProg(t, s)
	want := engineStats(t, prog)

	for _, chunk := range []int{0, 64} {
		src, err := C(prog, COptions{Main: true, Threads: true, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		// Sequential.
		survivors, visits, _ := runGeneratedC(t, src)
		if survivors != want.Survivors || visits != want.TotalVisits() {
			t.Errorf("C sequential chunk=%d: survivors=%d visits=%d, want %d/%d",
				chunk, survivors, visits, want.Survivors, want.TotalVisits())
		}
		// Multithreaded (the paper's "multithreaded as necessary" §I).
		survivorsMT, visitsMT, _ := runGeneratedC(t, src, "4")
		if survivorsMT != want.Survivors || visitsMT != want.TotalVisits() {
			t.Errorf("C 4-thread chunk=%d: survivors=%d visits=%d, want %d/%d",
				chunk, survivorsMT, visitsMT, want.Survivors, want.TotalVisits())
		}
	}
}

// runGeneratedGo builds the main package made of files (name -> source)
// with one go run and returns its output.
func runGeneratedGo(t *testing.T, files map[string]string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool unavailable")
	}
	dir := t.TempDir()
	files["go.mod"] = "module gensweep\n\ngo 1.23\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		var srcs strings.Builder
		for name, src := range files {
			fmt.Fprintf(&srcs, "--- %s ---\n%s\n", name, numberLines(src))
		}
		t.Fatalf("go run failed: %v\n%s\n%s", err, out, srcs.String())
	}
	return string(out)
}

func TestGeneratedGoMatchesEngine(t *testing.T) {
	prog := compileProg(t, featureSpace(t))
	want := engineStats(t, prog)
	for _, chunk := range []int{0, 64} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			src, err := Go(prog, GoOptions{Package: "main", FuncName: "enumerate", ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			out := runGeneratedGo(t, map[string]string{"sweep.go": src, "main.go": `package main

import "fmt"

func main() {
	st := enumerate(nil)
	var visits int64
	for _, v := range st.Visits {
		visits += v
	}
	fmt.Println("survivors", st.Survivors)
	fmt.Println("visits", visits)
}
`})
			var survivors, visits int64
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				f := strings.Fields(line)
				if len(f) == 2 && f[0] == "survivors" {
					survivors, _ = strconv.ParseInt(f[1], 10, 64)
				}
				if len(f) == 2 && f[0] == "visits" {
					visits, _ = strconv.ParseInt(f[1], 10, 64)
				}
			}
			if survivors != want.Survivors || visits != want.TotalVisits() {
				t.Errorf("generated Go: survivors=%d visits=%d, want %d/%d",
					survivors, visits, want.Survivors, want.TotalVisits())
			}
		})
	}
}

// TestInt64EdgeHelpers divides a MinInt64 setting by an iterator that
// takes the value -1 and checks /, % and abs of the quotient against the
// compiled engine, with the emitted C built at -O0 and -O2 and pedantic
// errors on. Go defines MinInt64 / -1 = MinInt64, MinInt64 % -1 = 0 and
// -MinInt64 = MinInt64; in C the first two trap and the last is undefined.
func TestInt64EdgeHelpers(t *testing.T) {
	s := space.New()
	s.IntSetting("m", math.MinInt64)
	s.Range("i", expr.IntLit(-2), expr.IntLit(2))
	s.Derived("q", expr.Div(expr.NewRef("m"), expr.NewRef("i")))
	s.Constrain("mod_set", space.Soft, expr.Ne(expr.Mod(expr.NewRef("m"), expr.NewRef("i")), expr.IntLit(0)))
	s.Constrain("abs_neg", space.Soft, expr.Lt(expr.Abs(expr.NewRef("q")), expr.IntLit(0)))
	s.Constrain("q_pos", space.Soft, expr.Gt(expr.NewRef("q"), expr.IntLit(0)))
	prog := compileProg(t, s)
	want := engineStats(t, prog)
	src, err := C(prog, COptions{Main: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []string{"-O0", "-O2"} {
		survivors, visits, kills := parseSweep(buildRunC(t, src, []string{opt, "-pedantic-errors"}))
		if survivors != want.Survivors || visits != want.TotalVisits() {
			t.Errorf("%s: C survivors/visits = %d/%d, engine = %d/%d", opt, survivors, visits, want.Survivors, want.TotalVisits())
		}
		for i, c := range prog.Constraints {
			if kills[c.Name] != want.Kills[i] {
				t.Errorf("%s: C kills[%s] = %d, engine = %d", opt, c.Name, kills[c.Name], want.Kills[i])
			}
		}
	}
}

// TestLoopFreeProgram runs a settings-only program in both languages,
// with its prelude check passing and failing: the survivor count and the
// number of delivered empty tuples match the engine.
func TestLoopFreeProgram(t *testing.T) {
	for _, limit := range []int64{5, 1} {
		s := space.New()
		s.IntSetting("n", 3)
		s.Constrain("big", space.Hard, expr.Gt(expr.NewRef("n"), expr.IntLit(limit)))
		prog := compileProg(t, s)
		c, err := engine.NewCompiled(prog)
		if err != nil {
			t.Fatal(err)
		}
		tuples := 0
		st, err := c.Run(engine.Options{OnTuple: func(vals []int64) bool {
			if len(vals) == 0 {
				tuples++
			}
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("survivors %d tuples %d", st.Survivors, tuples)

		csrc, err := C(prog, COptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := buildRunC(t, csrc+`
static void count(const i64 *vals, int n, void *ctx) { (void)vals; if (n == 0) ++*(i64 *)ctx; }
int main(void) {
    beast_stats st;
    i64 tuples = 0;
    memset(&st, 0, sizeof st);
    beast_enumerate(&st, count, &tuples);
    printf("survivors %lld tuples %lld\n", (long long)st.survivors, (long long)tuples);
    return 0;
}
`, nil)
		if strings.TrimSpace(got) != want {
			t.Errorf("limit %d: C %q, engine %q", limit, strings.TrimSpace(got), want)
		}

		gosrc, err := Go(prog, GoOptions{Package: "main", FuncName: "enumerate"})
		if err != nil {
			t.Fatal(err)
		}
		got = runGeneratedGo(t, map[string]string{"sweep.go": gosrc, "main.go": `package main

import "fmt"

func main() {
	tuples := 0
	st := enumerate(func(vals []int64) bool {
		if len(vals) == 0 {
			tuples++
		}
		return true
	})
	fmt.Printf("survivors %d tuples %d\n", st.Survivors, tuples)
}
`})
		if strings.TrimSpace(got) != want {
			t.Errorf("limit %d: Go %q, engine %q", limit, strings.TrimSpace(got), want)
		}
	}
}

func TestNotTranslatable(t *testing.T) {
	// Deferred constraints are host code.
	s := space.New()
	s.Range("x", expr.IntLit(0), expr.IntLit(4))
	s.DeferredConstraint("host", space.Soft, []string{"x"},
		func(args []expr.Value) bool { return args[0].I == 2 })
	prog := compileProg(t, s)
	if _, err := C(prog, COptions{}); err == nil {
		t.Error("expected NotTranslatableError for deferred constraint")
	}
	if _, err := Go(prog, GoOptions{}); err == nil {
		t.Error("Go: expected NotTranslatableError for deferred constraint")
	}

	// Deferred iterators depending on other iterators cannot freeze.
	s2 := space.New()
	s2.Range("x", expr.IntLit(1), expr.IntLit(4))
	s2.DeferredIter("y", []string{"x"}, func(args []expr.Value) space.DomainExpr {
		return space.NewIntList(args[0].I)
	})
	prog2 := compileProg(t, s2)
	if _, err := C(prog2, COptions{}); err == nil {
		t.Error("expected NotTranslatableError for open deferred iterator")
	}
	if _, err := Go(prog2, GoOptions{}); err == nil {
		t.Error("Go: expected NotTranslatableError for open deferred iterator")
	}

	// Closed closure iterators freeze to a literal list.
	s3 := space.New()
	s3.IntSetting("n", 20)
	s3.ClosureIter("primes", []string{"n"}, func(args []expr.Value, yield func(int64) bool) {
		n := args[0].I
		for v := int64(2); v <= n; v++ {
			isPrime := true
			for d := int64(2); d*d <= v; d++ {
				if v%d == 0 {
					isPrime = false
					break
				}
			}
			if isPrime && !yield(v) {
				return
			}
		}
	})
	prog3 := compileProg(t, s3)
	src, err := C(prog3, COptions{Main: true})
	if err != nil {
		t.Fatalf("closed closure iterator should translate: %v", err)
	}
	if !strings.Contains(src, "2, 3, 5, 7, 11, 13, 17, 19") {
		t.Error("frozen prime list missing from generated C")
	}
	if _, err := Go(prog3, GoOptions{}); err != nil {
		t.Errorf("Go: closed closure iterator should translate: %v", err)
	}
}

func TestCGoldenStructure(t *testing.T) {
	// Pin the structural properties of emitted C rather than every byte:
	// constraint hoisting must be visible in the nesting depth.
	cfg := gemm.Default()
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := compileProg(t, s)
	src, err := C(prog, COptions{})
	if err != nil {
		t.Fatal(err)
	}
	// partial_warps reads only dim_m*dim_n: it must appear before the
	// blk_m loop opens (hoisted to depth 1), i.e. earlier in the text.
	warp := strings.Index(src, "partial_warps")
	blkLoop := strings.Index(src, "for (i64 blk_m")
	if warp < 0 || blkLoop < 0 || warp > blkLoop {
		t.Errorf("partial_warps (at %d) not hoisted above blk_m loop (at %d)", warp, blkLoop)
	}
	// Settings burned in as constants.
	if !strings.Contains(src, "const i64 max_threads_per_block = 1024;") {
		t.Error("settings not burned into generated C")
	}
	// Correctness constraints sit at the dim_n_a / dim_n_b depths.
	a1 := strings.Index(src, "cant_reshape_a1")
	bLoop := strings.Index(src, "for (i64 dim_m_b")
	if a1 < 0 || bLoop < 0 || a1 > bLoop {
		t.Errorf("cant_reshape_a1 (at %d) not hoisted above dim_m_b loop (at %d)", a1, bLoop)
	}
}

// TestDocsSweepArtifactInSync pins docs/sweep_dgemm_nn.c — the committed
// full-scale generated C for the paper's headline DGEMM sweep. Regenerate
// with:
//
//	go run ./cmd/spacegen -gemm dgemm_nn -lang c -c-main -c-threads -o docs/sweep_dgemm_nn.c
func TestDocsSweepArtifactInSync(t *testing.T) {
	cfg := gemm.Default()
	s, err := gemm.Space(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := compileProg(t, s)
	want, err := C(prog, COptions{FuncName: "beast_enumerate", Main: true, Threads: true, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../docs/sweep_dgemm_nn.c")
	if err != nil {
		t.Fatalf("%v (regenerate per the comment above)", err)
	}
	if string(got) != want {
		t.Error("docs/sweep_dgemm_nn.c is stale; regenerate per the comment above")
	}
	// The committed artifact must at least compile.
	cc := haveCC(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "sweep")
	if out, err := exec.Command(cc, "-O2", "-std=c99", "-o", bin, "../../docs/sweep_dgemm_nn.c", "-lpthread").CombinedOutput(); err != nil {
		t.Fatalf("committed artifact does not compile: %v\n%s", err, out)
	}
}
