// Package beast is the public face of this repository: a Go reproduction
// of the BEAST search-space generation and pruning system for autotuners
// (Luszczek, Gates, Kurzak, Danalis, Dongarra — IPDPSW 2016).
//
// The package re-exports the stable surface of the internal packages so
// that applications — the examples/ programs, the cmd/ tools, and
// downstream users — program against one import:
//
//	s := beast.NewSpace()
//	s.IntSetting("max_threads", 1024)
//	s.Range("dim_m", beast.Int(1), beast.Add(beast.Ref("max_threads"), beast.Int(1)))
//	s.Constrain("partial_warps", beast.Soft,
//	    beast.Ne(beast.Mod(beast.Ref("dim_m"), beast.Int(32)), beast.Int(0)))
//
//	prog, _ := beast.Compile(s, beast.PlanOptions{})
//	eng, _ := beast.NewCompiled(prog)
//	stats, _ := eng.Run(beast.RunOptions{Workers: 8})
//
// The three evaluation backends (tree-walking interpreter, bytecode VM,
// closure-compiled native) enumerate identical survivor sets; the code
// generators emit the equivalent standard C and Go programs; the autotuner
// couples enumeration to an objective function. See README.md for the
// architecture and EXPERIMENTS.md for the paper-reproduction results.
package beast

import (
	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/space"
	"repro/internal/speclang"
)

// Core model types.
type (
	// Space is a declarative search-space description.
	Space = space.Space
	// Iterator is one dimension of a space.
	Iterator = space.Iterator
	// Constraint is a pruning predicate (true rejects).
	Constraint = space.Constraint
	// Derived is a named intermediate value.
	Derived = space.Derived
	// DomainExpr describes an iterator's value sequence.
	DomainExpr = space.DomainExpr
	// Value is a scalar of the expression language.
	Value = expr.Value
	// Expr is an expression-tree node.
	Expr = expr.Expr
	// Program is a compiled loop nest.
	Program = plan.Program
	// PlanOptions control plan compilation (loop order, ablations).
	PlanOptions = plan.Options
	// ReorderInfo records the loop-order optimizer's decision (Program.Reorder).
	ReorderInfo = plan.ReorderInfo
	// SelectivityEstimate is a sampled per-constraint pass rate.
	SelectivityEstimate = plan.SelectivityEstimate
	// RunOptions control enumeration (protocol, workers, callbacks).
	RunOptions = engine.Options
	// Stats are enumeration counters (visits, checks, kills, survivors).
	Stats = engine.Stats
	// Engine enumerates a compiled program.
	Engine = engine.Engine
	// Protocol selects a backend's loop-control variant.
	Protocol = engine.Protocol
	// Tuner couples a space to an objective function.
	Tuner = autotune.Tuner
	// TuneOptions configure a tuning run.
	TuneOptions = autotune.Options
	// TuneReport is a tuning outcome.
	TuneReport = autotune.Report
)

// Constraint classes (§IX.E of the paper).
const (
	Hard        = space.Hard
	Soft        = space.Soft
	Correctness = space.Correctness
)

// Loop protocols (the Figure 17/18 syntactic variants).
const (
	ProtoDefault = engine.ProtoDefault
	ProtoWhile   = engine.ProtoWhile
	ProtoRange   = engine.ProtoRange
	ProtoXRange  = engine.ProtoXRange
	ProtoRepeat  = engine.ProtoRepeat
)

// Tuning strategies.
const (
	Exhaustive   = autotune.Exhaustive
	RandomSample = autotune.RandomSample
	HillClimb    = autotune.HillClimb
	Anneal       = autotune.Anneal
)

// NewSpace returns an empty space.
func NewSpace() *Space { return space.New() }

// ParseSpec compiles textual spec-language source into a space.
func ParseSpec(src string) (*Space, error) { return speclang.Parse(src) }

// Compile plans a space into an executable loop nest.
func Compile(s *Space, opts PlanOptions) (*Program, error) { return plan.Compile(s, opts) }

// Engines.

// NewInterp returns the tree-walking interpreter backend ("Python").
func NewInterp(p *Program) Engine { return engine.NewInterp(p) }

// NewVM returns the bytecode backend ("Lua").
func NewVM(p *Program) Engine { return engine.NewVM(p) }

// NewCompiled returns the closure-compiled native backend ("generated C").
func NewCompiled(p *Program) (Engine, error) { return engine.NewCompiled(p) }

// NewTuner couples a space to an objective for autotuning.
func NewTuner(s *Space, objective func(tuple []int64) float64) (*Tuner, error) {
	return autotune.New(s, objective)
}

// GenerateC emits the program as standard C (optionally with main() and a
// pthreads-parallel variant).
func GenerateC(p *Program, main, threads bool) (string, error) {
	return codegen.C(p, codegen.COptions{Main: main, Threads: threads})
}

// GenerateGo emits the program as a self-contained Go source file.
func GenerateGo(p *Program, pkg, fn string) (string, error) {
	return codegen.Go(p, codegen.GoOptions{Package: pkg, FuncName: fn})
}

// Expression constructors (the operators the paper overloads in Python).

// Int returns an integer literal.
func Int(v int64) Expr { return expr.IntLit(v) }

// Str returns a string literal.
func Str(s string) Expr { return expr.StrLit(s) }

// Bool returns a boolean literal.
func Bool(b bool) Expr { return expr.BoolLit(b) }

// Ref references a named iterator, derived variable, or setting.
func Ref(name string) Expr { return expr.NewRef(name) }

// Arithmetic, relational, and boolean operators.
func Add(l, r Expr) Expr { return expr.Add(l, r) }
func Sub(l, r Expr) Expr { return expr.Sub(l, r) }
func Mul(l, r Expr) Expr { return expr.Mul(l, r) }
func Div(l, r Expr) Expr { return expr.Div(l, r) }
func Mod(l, r Expr) Expr { return expr.Mod(l, r) }
func Eq(l, r Expr) Expr  { return expr.Eq(l, r) }
func Ne(l, r Expr) Expr  { return expr.Ne(l, r) }
func Lt(l, r Expr) Expr  { return expr.Lt(l, r) }
func Le(l, r Expr) Expr  { return expr.Le(l, r) }
func Gt(l, r Expr) Expr  { return expr.Gt(l, r) }
func Ge(l, r Expr) Expr  { return expr.Ge(l, r) }
func And(l, r Expr) Expr { return expr.And(l, r) }
func Or(l, r Expr) Expr  { return expr.Or(l, r) }
func Not(x Expr) Expr    { return expr.Not(x) }
func Neg(x Expr) Expr    { return expr.Neg(x) }

// If is the conditional expression: then if cond else els.
func If(cond, then, els Expr) Expr { return expr.If(cond, then, els) }

// Min and Max are the variadic builtins of the notation.
func Min(args ...Expr) Expr { return expr.MinOf(args...) }
func Max(args ...Expr) Expr { return expr.MaxOf(args...) }

// Abs is the absolute-value builtin.
func Abs(x Expr) Expr { return expr.Abs(x) }

// Domain constructors (iterator value sequences).

// Range is the half-open domain range(start, stop).
func Range(start, stop Expr) DomainExpr { return space.NewRange(start, stop) }

// RangeStep is range(start, stop, step); negative steps descend.
func RangeStep(start, stop, step Expr) DomainExpr { return space.NewRangeStep(start, stop, step) }

// List enumerates explicit elements.
func List(elems ...Expr) DomainExpr { return space.NewList(elems...) }

// CondDomain selects a domain by a condition over outer iterators.
func CondDomain(cond Expr, then, els DomainExpr) DomainExpr {
	return space.NewCond(cond, then, els)
}

// Iterator algebra (§VIII).
func Union(l, r DomainExpr) DomainExpr     { return space.Union(l, r) }
func Intersect(l, r DomainExpr) DomainExpr { return space.Intersect(l, r) }
func Diff(l, r DomainExpr) DomainExpr      { return space.Difference(l, r) }
func Concat(l, r DomainExpr) DomainExpr    { return space.Concat(l, r) }

// FormatSpec renders a space in the textual notation (the inverse of
// ParseSpec). Host constructs — deferred/closure iterators, deferred
// constraints — have no textual form and are reported as errors.
func FormatSpec(s *Space) (string, error) { return speclang.Format(s) }
