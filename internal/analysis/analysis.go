// Package analysis implements owvet, the repository's static-analysis
// suite. It enforces, at `make verify` time, the invariants the paper's
// correctness argument rests on but the compiler cannot see:
//
//   - crosskernel: every byte the crash kernel reads from the dead main
//     kernel flows through the CRC-verifying, Table-4-accounted reader
//     (Sections 3.3–3.4);
//   - nodeterminism: fault-injection campaigns replay bit-for-bit from a
//     seed (Section 6), so wall clocks, the global math/rand source,
//     multi-way selects and ordered map iteration are banned from the
//     campaign-affecting packages;
//   - gopanic: the simulator models kernel panics as values; a literal Go
//     panic, log.Fatal or os.Exit would tear the whole process down instead
//     of exercising the microreboot;
//   - errdrop: errors from the memory/layout/disk substrate are never
//     silently discarded — modeled corruption must surface as a detected
//     failure, not a wrong result;
//   - lockdiscipline: lock-by-value copies and return-while-locked
//     patterns in the concurrent packages, beyond what go vet catches;
//   - deadtaint: flow-sensitive provenance tracking — values derived from
//     dead-kernel reads stay tainted through helpers and returns until a
//     CRC/range validation, and must not reach kernel installs, indexing
//     or dereferences unvalidated;
//   - costaccount: copy/CRC work reachable from the resurrection entry
//     points must charge the machine clock (sim.CostModel);
//   - sealedacct: no writes to the published, fingerprinted Table 4
//     ledger after the seal point or on post-seal (lazy resolve) paths.
//
// A diagnostic is suppressed by an `//owvet:allow <analyzer>: <reason>`
// comment on the flagged line or the line directly above it. The driver is
// stdlib-only: packages are loaded with a custom go/parser + go/types
// loader (no go/packages, matching the module's empty dependency set).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Diagnostic is one reported violation. File is module-root-relative and
// slash-separated so output is stable across checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one owvet check.
type Analyzer struct {
	Name string
	Doc  string
	// Scope lists module-relative path prefixes the analyzer applies to;
	// empty means the whole module.
	Scope []string
	Run   func(*Pass)
}

// AppliesTo reports whether the analyzer covers a package at rel.
func (a *Analyzer) AppliesTo(rel string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if s == "" || rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// All lists every analyzer in the suite, in reporting order. The last
// three are flow analyzers: they run on the shared dataflow index
// (Pass.Flow) the driver builds once per run.
var All = []*Analyzer{
	CrossKernel, NoDeterminism, GoPanic, ErrDrop, LockDiscipline,
	DeadTaint, CostAccount, SealedAcct,
}

// Lookup resolves an analyzer by name.
func Lookup(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// allowSet records //owvet:allow directives per file and line.
type allowSet map[string]map[int][]string

// AllowDirective is the comment prefix that suppresses a diagnostic.
const AllowDirective = "owvet:allow"

// collectAllows scans a package's comments for allow directives. The
// directive form is `//owvet:allow <analyzer>[,<analyzer>...]: <reason>`;
// the analyzer list may be `all`.
func collectAllows(pkg *Package) allowSet {
	out := make(allowSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(strings.TrimSpace(text), "/*")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, AllowDirective)
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(rest, ":")
				var list []string
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						list = append(list, n)
					}
				}
				if len(list) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				file := filepath.ToSlash(pos.Filename)
				if out[file] == nil {
					out[file] = make(map[int][]string)
				}
				out[file][pos.Line] = append(out[file][pos.Line], list...)
			}
		}
	}
	return out
}

// allowed reports whether analyzer an is suppressed at file:line — a
// directive on the line itself or the line directly above.
func (a allowSet) allowed(an, file string, line int) bool {
	lines := a[file]
	if lines == nil {
		return false
	}
	for _, l := range []int{line, line - 1} {
		for _, name := range lines[l] {
			if name == an || name == "all" {
				return true
			}
		}
	}
	return false
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Flow is the module-wide dataflow index (call graph + function
	// summaries), built once per run when any flow analyzer is selected;
	// nil otherwise. Read-only.
	Flow *FlowIndex

	modRoot string
	allows  allowSet
	diags   *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	file := filepath.ToSlash(position.Filename)
	if p.allows.allowed(p.Analyzer.Name, file, position.Line) {
		return
	}
	rel := file
	if r, err := filepath.Rel(p.modRoot, position.Filename); err == nil {
		rel = filepath.ToSlash(r)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     rel,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// unparen strips parenthesised expressions.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// pkgPathIs reports whether an import path is, or ends with, the
// module-relative path rel. Matching by suffix keeps the analyzers
// repo-invariant: they recognise "internal/phys" whether the module is
// called otherworld or anything else (fixtures included).
func pkgPathIs(path, rel string) bool {
	return path == rel || strings.HasSuffix(path, "/"+rel)
}

// calleeFunc resolves a call expression to the function or method object it
// invokes, or nil for builtins, conversions and indirect calls through
// variables.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}
