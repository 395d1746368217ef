// Command spacegen is the BEAST translator front end: it turns a search
// space — a textual spec file, the built-in GEMM model problem, or the
// Figure 19 loop-nest workload — into standard C or Go source, the
// conversion step of §X of the paper.
//
// Examples:
//
//	spacegen -spec space.bst -lang c -c-main -c-threads -o sweep.c
//	spacegen -gemm dgemm_nn -device k40c -scale 32 -lang c -c-main
//	spacegen -loopbench 3 -total 100000000 -lang go -pkg sweep
//	spacegen -write-gensweep   # refresh the committed internal/gensweep files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/codegen"
	"repro/internal/gensweep"
	"repro/internal/loopbench"
	"repro/internal/plan"
	"repro/internal/space"
)

func main() {
	src := cli.SourceFlags()
	planOpts := cli.PlanFlags()
	var (
		loopDepth = flag.Int("loopbench", 0, "built-in loop-nest workload of this depth (1-4)")
		loopTotal = flag.Int64("total", 100_000_000, "total iterations for -loopbench")
		lang      = flag.String("lang", "c", "output language: c or go")
		cMain     = flag.Bool("c-main", false, "emit a main() function that runs the sweep (C)")
		cThreads  = flag.Bool("c-threads", false, "emit the pthreads variant (C)")
		pkg       = flag.String("pkg", "sweep", "package name (Go)")
		funcName  = flag.String("func", "Enumerate", "function name")
		chunk     = flag.Int("chunk", 64, "innermost-loop chunk size for emitted code (1 = scalar)")
		out       = flag.String("o", "", "output file (default stdout)")
		writeGS   = flag.Bool("write-gensweep", false, "regenerate internal/gensweep/*_gen.go and exit")
	)
	flag.Parse()

	if *writeGS {
		if err := writeGensweep(); err != nil {
			fail(err)
		}
		return
	}

	s, err := buildSpace(src, *loopDepth, *loopTotal)
	if err != nil {
		fail(err)
	}
	src.Lint("spacegen", s, planOpts.TabulateBudget)
	prog, err := plan.Compile(s, *planOpts)
	if err != nil {
		fail(err)
	}
	var code string
	switch *lang {
	case "c":
		code, err = codegen.C(prog, codegen.COptions{FuncName: sanitizeC(*funcName), Main: *cMain, Threads: *cThreads, ChunkSize: *chunk})
	case "go":
		code, err = codegen.Go(prog, codegen.GoOptions{Package: *pkg, FuncName: *funcName, ChunkSize: *chunk})
	default:
		err = cli.Usagef("unknown -lang %q (want c or go)", *lang)
	}
	if err != nil {
		fail(err)
	}
	if *out == "" {
		fmt.Print(code)
		return
	}
	if err := os.WriteFile(*out, []byte(code), 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(code))
}

// buildSpace returns the -loopbench workload, or else the space the
// shared source flags name.
func buildSpace(src *cli.Source, loopDepth int, loopTotal int64) (*space.Space, error) {
	named := src.Spec != "" || src.GEMM != ""
	switch {
	case named == (loopDepth > 0):
		return nil, cli.Usagef("exactly one of -spec, -gemm, -loopbench is required")
	case named:
		return src.Load()
	case loopDepth > loopbench.MaxDepth:
		return nil, cli.Usagef("-loopbench depth %d exceeds %d", loopDepth, loopbench.MaxDepth)
	}
	return loopbench.Space(loopDepth, loopTotal), nil
}

// sanitizeC keeps the default Go-ish name out of the C namespace.
func sanitizeC(name string) string {
	if name == "Enumerate" {
		return "beast_enumerate"
	}
	return name
}

func writeGensweep() error {
	files, err := gensweep.Sources()
	if err != nil {
		return err
	}
	dir := filepath.Join("internal", "gensweep")
	if _, err := os.Stat(filepath.Join(dir, "gen.go")); err != nil {
		return fmt.Errorf("run from the repository root (missing %s): %w", dir, err)
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", path, len(content))
	}
	return nil
}

func fail(err error) {
	cli.Fail("spacegen", err)
}
