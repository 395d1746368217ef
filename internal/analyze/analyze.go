// Package analyze is a pass-based static analyzer over parsed specs and
// their compiled plans: the lint layer behind `beast -lint` and
// `spacegen -lint`.
//
// The paper's premise is that constraint structure is known *before*
// enumeration; this package pushes that to its conclusion. A contradictory
// or degenerate spec should fail in microseconds at plan time, not after
// an hours-long sweep returns zero survivors. The passes reuse the plan
// compiler's own machinery — interval propagation (plan.Intervals, PR 3)
// to prove predicates over full domains, and canonical-form hashing
// (plan.Canon, the CSE normalizer of PR 2) to detect duplicate and
// subsumed constraints — so the analyzer and the optimizer agree on what
// expressions mean.
//
// Diagnostics carry a stable code, a severity, and the source span of the
// offending declaration (plumbed from the speclang lexer through the
// parser into the space AST). Codes:
//
//	E001  unsatisfiable constraint (set): provably rejects every tuple
//	E002  empty iterator domain: the space has zero tuples
//	E003  string that does not fold away at plan time: the spec cannot
//	      be planned, so the other passes are skipped
//	W101  dead constraint: provably never rejects (wasted evaluations)
//	W102  duplicate constraint: identical rejection predicate
//	W103  subsumed constraint: rejects a subset of another's rejections
//	W104  unused iterator: no constraint, derived variable, or domain
//	      reads it
//	W201  estimated cardinality overflows int64
//	W202  constraint tabulation skipped: exceeds the table-byte budget
//	W203  deferred (host) constraint at the innermost loop forfeits
//	      narrowing, tabulation, and vectorization
package analyze

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/space"
)

// Severity ranks a diagnostic.
type Severity uint8

// Severities, least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code is the stable diagnostic code ("E001", "W104", ...).
	Code string

	Severity Severity

	// Name is the space entity the finding is about (constraint or
	// iterator name; "space" for whole-space findings).
	Name string

	// Span is the source position of the offending declaration; the zero
	// Pos for spaces built through the Go API.
	Span space.Pos

	// Message is the human-readable explanation.
	Message string
}

// Render formats the diagnostic with a file prefix:
// "file:line:col: severity[code] message".
func (d Diagnostic) Render(file string) string {
	if d.Span.Known() {
		return fmt.Sprintf("%s:%d:%d: %s[%s] %s", file, d.Span.Line, d.Span.Col, d.Severity, d.Code, d.Message)
	}
	return fmt.Sprintf("%s: %s[%s] %s", file, d.Severity, d.Code, d.Message)
}

// Report is the ordered finding list of one Analyze run.
type Report struct {
	Diags []Diagnostic
}

// Errors counts error-severity findings.
func (r *Report) Errors() int { return r.count(Error) }

// Warnings counts warning-severity findings.
func (r *Report) Warnings() int { return r.count(Warning) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Fails reports whether the findings should fail a lint run: any error,
// or any warning when werror promotes warnings to errors.
func (r *Report) Fails(werror bool) bool {
	return r.Errors() > 0 || (werror && r.Warnings() > 0)
}

// Render formats every diagnostic plus a trailing summary line.
func (r *Report) Render(file string) string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.Render(file))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "lint: %d error(s), %d warning(s)\n", r.Errors(), r.Warnings())
	return b.String()
}

// Options configure an Analyze run.
type Options struct {
	// TabulateBudget is the table-byte budget the scale pass checks
	// against (W202); zero means plan.DefaultTabulateBudget.
	TabulateBudget int64
}

// context carries everything the passes read: the space, an analysis
// plan (hoisting and folding on; CSE, narrowing, reorder, and tabulation
// off, so every constraint is a plain check step at its hoisted depth),
// a narrowed plan (narrowing and tabulation on, for the constraint-set
// and budget passes), interval façades for both, and the loop-cardinality
// estimates. Both plans come from one placement of the space.
type context struct {
	space  *space.Space
	opts   Options
	base   *plan.Program
	narrow *plan.Program
	baseIv *plan.Intervals
	narIv  *plan.Intervals
	cards  []int64
	canon  *plan.Canon
	rep    *Report
	unsat  map[string]bool // constraints already reported E001
}

// Analyze runs every pass over s and returns the findings, ordered by
// source position then code. A spec whose strings do not fold away
// (*plan.TypeError) yields its one E003 finding, since the passes need a
// plan. The error return is reserved for specs that fail to compile
// otherwise (cycles, unbound names); such specs cannot be analyzed.
func Analyze(s *space.Space, opts Options) (*Report, error) {
	progs, err := plan.CompileEach(s, plan.Options{
		DisableReorder:    true,
		DisableCSE:        true,
		DisableNarrowing:  true,
		DisableTabulation: true,
	}, plan.Options{
		DisableReorder: true,
		DisableCSE:     true,
		TabulateBudget: opts.TabulateBudget,
	})
	var te *plan.TypeError
	if errors.As(err, &te) {
		return &Report{Diags: []Diagnostic{{
			Code: "E003", Severity: Error, Name: te.Name, Span: te.Pos,
			Message: fmt.Sprintf("%s %s: %v; strings must fold away at plan time", te.Entity, te.Name, te.Err),
		}}}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	base, narrow := progs[0], progs[1]
	ctx := &context{
		space:  s,
		opts:   opts,
		base:   base,
		narrow: narrow,
		baseIv: plan.NewIntervals(base),
		narIv:  plan.NewIntervals(narrow),
		cards:  base.EstimateLoopCards(),
		canon:  plan.NewCanon(),
		rep:    &Report{},
	}
	passEmptyDomains(ctx)
	passPredicates(ctx)
	passBoundsContradiction(ctx)
	passRedundancy(ctx)
	passUnusedIterators(ctx)
	passScale(ctx)
	sort.SliceStable(ctx.rep.Diags, func(i, j int) bool {
		a, b := ctx.rep.Diags[i], ctx.rep.Diags[j]
		if a.Span.Line != b.Span.Line {
			return a.Span.Line < b.Span.Line
		}
		if a.Span.Col != b.Span.Col {
			return a.Span.Col < b.Span.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Name < b.Name
	})
	return ctx.rep, nil
}

func (ctx *context) add(code string, sev Severity, name string, span space.Pos, format string, args ...any) {
	ctx.rep.Diags = append(ctx.rep.Diags, Diagnostic{
		Code:     code,
		Severity: sev,
		Name:     name,
		Span:     span,
		Message:  fmt.Sprintf(format, args...),
	})
}

// constraintPos looks up the source span of a constraint by name.
func (ctx *context) constraintPos(name string) space.Pos {
	for _, c := range ctx.space.Constraints() {
		if c.Name == name {
			return c.Pos
		}
	}
	return space.Pos{}
}
