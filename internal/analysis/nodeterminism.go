package analysis

import (
	"go/ast"
	"go/types"
)

// NoDeterminism polices the Section 6 replayability requirement: a campaign
// table must be reproducible bit-for-bit from its seed. In the packages
// that feed campaign results (experiment, sim, faultinject, trace, core
// with the machine clock the schedule model advances, spans with the
// width-pinned span-tree fingerprints and Perfetto exporter, sched with the
// admission queue and pipelined-commit schedule model, and layout with the
// candidate index the discovery prologue salvages) and the command-line
// front-ends, it bans:
//
//   - wall-clock reads (time.Now and friends) — virtual time comes from
//     sim.Clock;
//   - the global math/rand source — randomness comes from seeded sim.RNG;
//   - select statements with two or more channel cases, whose ready-choice
//     is scheduler-dependent;
//   - ranging over a map where the body feeds an fmt call or builds a
//     result slice that is never sorted, since map order varies run to run.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc: "ban wall clocks, global math/rand, multi-way selects and " +
		"order-dependent map iteration in campaign-affecting packages",
	Scope: []string{
		"internal/experiment", "internal/sim", "internal/faultinject",
		"internal/trace", "internal/metrics", "internal/core",
		"internal/spans", "internal/sched", "internal/layout", "cmd",
	},
	Run: runNoDeterminism,
}

// wallClockFuncs are the time-package functions that read the host clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

// seededRandFuncs are the math/rand constructors that are fine: they build
// explicit, seedable sources.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNoDeterminism(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runNoDeterminismFunc(p, fd)
		}
	}
}

func runNoDeterminismFunc(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondetCall(p, n)
		case *ast.SelectStmt:
			checkSelect(p, n)
		case *ast.RangeStmt:
			checkMapRange(p, fd, n)
		}
		return true
	})
}

func checkNondetCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch fn.Pkg().Path() {
	case "time":
		if !isMethod && wallClockFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"time.%s reads the wall clock; campaign results must replay from the seed "+
					"— charge virtual time to sim.Clock instead", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !isMethod && !seededRandFuncs[fn.Name()] {
			p.Reportf(call.Pos(),
				"%s.%s draws from the global rand source; use a seeded sim.RNG so "+
					"experiments replay bit-for-bit", fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkSelect(p *Pass, sel *ast.SelectStmt) {
	comms := 0
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		p.Reportf(sel.Pos(),
			"select over %d channel cases picks among ready channels nondeterministically; "+
				"campaign replay requires a single deterministic event source", comms)
	}
}

// checkMapRange flags ranging over a map when the loop body's output is
// order-sensitive: it prints through fmt, or appends into a slice that the
// enclosing function never sorts afterwards. Pure reductions (sums, counts,
// building another map) are order-independent and pass.
func checkMapRange(p *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := p.Pkg.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fmtCall := false
	var appendTargets []string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(p.Pkg, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				fmtCall = true
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := unparen(call.Fun).(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
					continue
				}
				if i < len(n.Lhs) {
					appendTargets = append(appendTargets, types.ExprString(n.Lhs[i]))
				}
			}
		}
		return true
	})
	switch {
	case fmtCall:
		p.Reportf(rs.Pos(),
			"map iteration order feeds fmt output; iterate a sorted key slice so "+
				"campaign tables render identically on every run")
	case len(appendTargets) > 0 && !sortedAfter(p, fd, appendTargets):
		p.Reportf(rs.Pos(),
			"map iteration order feeds an accumulated result (%s) that is never sorted; "+
				"sort it or iterate sorted keys", appendTargets[0])
	}
}

// sortedAfter reports whether any append target is passed to a sort or
// slices ordering function somewhere in the enclosing function.
func sortedAfter(p *Pass, fd *ast.FuncDecl, targets []string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(p.Pkg, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			s := types.ExprString(unparen(arg))
			for _, t := range targets {
				if s == t || s == "&"+t {
					found = true
				}
			}
		}
		return true
	})
	return found
}
