package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the dataflow layer under the flow analyzers (deadtaint,
// costaccount, sealedacct): a module-wide call graph over the stdlib-only
// loader, per-function summaries cached by package, and a worklist-based
// intraprocedural taint propagator.
//
// Provenance labels are a bitset: bit 0 marks a value derived from
// dead-kernel bytes (a read through the //owvet:reader counting reader or a
// direct phys.Mem accessor); bit i+1 marks a value derived from the
// enclosing function's i-th parameter (receiver first). Summaries record,
// per function, the labels of each result, the labels each reference
// parameter's referent picks up as a side effect, and which parameters
// reach an index/dereference/kernel-install sink unvalidated — so taint
// smuggled through helpers is caught at the call site, interprocedurally.
//
// The propagator is deliberately field-insensitive in one direction only:
// stores into struct fields kill the label. Dead-kernel bytes are parsed
// into plan/record structs immediately after validation in this codebase,
// so field stores are where provenance legitimately ends; tracking them
// would drown the real smuggling patterns (raw words and buffers returned
// through helpers) in noise.

// taint is a bitset of provenance labels.
type taint uint64

// taintDead marks data derived from dead-kernel bytes.
const taintDead taint = 1

// paramBit labels data derived from parameter i (receiver first). Functions
// with more than 62 parameters lose precision, never soundness of the
// labels that do fit.
func paramBit(i int) taint {
	if i < 0 || i >= 62 {
		return 0
	}
	return taint(1) << (uint(i) + 1)
}

// Directives understood by the dataflow layer, beyond owvet:reader and
// owvet:allow:
//
//	//owvet:validator  on a function: its arguments count as CRC/range
//	                   validated (hash/crc32 and names matching valid/verify
//	                   are recognised without the directive)
//	//owvet:seal       on a function: calling it seals the accounting;
//	                   later writes to sealed fields are diagnostics
//	//owvet:sealed     on a struct field: the field is part of the published,
//	                   fingerprinted ledger
//	//owvet:postseal   on a function: it runs after the seal point (lazy
//	                   resolution paths); everything reachable from it must
//	                   not write sealed fields
const (
	ValidatorDirective = "owvet:validator"
	SealDirective      = "owvet:seal"
	SealedDirective    = "owvet:sealed"
	PostSealDirective  = "owvet:postseal"
)

// FuncSummary is the cached dataflow summary of one module function.
type FuncSummary struct {
	// Results holds the label set of each result value.
	Results []taint
	// ParamOut holds, per parameter, labels its referent picks up as a side
	// effect (only reference-typed parameters: slices, pointers, maps).
	ParamOut []taint
	// Sinks has paramBit(i) set when parameter i reaches an index bound,
	// dereference or kernel-install sink inside the function (or one of its
	// callees) without passing a validation first.
	Sinks taint
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	if o == nil || s.Sinks != o.Sinks ||
		len(s.Results) != len(o.Results) || len(s.ParamOut) != len(o.ParamOut) {
		return false
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	for i := range s.ParamOut {
		if s.ParamOut[i] != o.ParamOut[i] {
			return false
		}
	}
	return true
}

// sealedWrite is one syntactic write to an //owvet:sealed field.
type sealedWrite struct {
	pos   token.Pos
	field string
}

// costOp is one bytes-moving or CRC operation costaccount polices.
type costOp struct {
	pos  token.Pos
	what string
}

// flowFunc is one declared module function in the call graph.
type flowFunc struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// callees lists module functions this one calls, in first-encounter
	// order (deterministic: derived from the AST walk).
	callees []*types.Func

	// chargesDirect: the body references sim.CostModel or calls
	// sim.Clock.Advance. chargesTrans closes that over callees.
	chargesDirect bool
	chargesTrans  bool
	// writesSealed: the body writes an //owvet:sealed field directly;
	// writesSealedTrans closes that over callees.
	writesSealed      bool
	writesSealedTrans bool
	sealedWrites      []sealedWrite
	costOps           []costOp
}

// FlowIndex is the module-wide dataflow index built once per Run and shared
// (read-only) by every analyzer pass.
type FlowIndex struct {
	mod     *Module
	pkgs    []*Package
	byTypes map[*types.Package]*Package

	funcs  map[*types.Func]*flowFunc
	pkgFns map[*Package][]*flowFunc
	// summaries is the function-summary cache, keyed by package: a
	// package's map is computed once (imports first, worklist to fixpoint
	// within the package) and then only read.
	summaries map[*Package]map[*types.Func]*FuncSummary

	readerTypeObjs map[*types.TypeName]bool
	validators     map[*types.Func]bool
	seals          map[*types.Func]bool
	postSeals      map[*types.Func]bool
	sealedFields   map[types.Object]bool
}

// buildFlowIndex constructs the call graph, collects directives, and
// computes every package's function summaries (dependencies first).
func buildFlowIndex(mod *Module, pkgs []*Package) *FlowIndex {
	fi := &FlowIndex{
		mod:            mod,
		pkgs:           pkgs,
		byTypes:        make(map[*types.Package]*Package, len(pkgs)),
		funcs:          make(map[*types.Func]*flowFunc),
		pkgFns:         make(map[*Package][]*flowFunc),
		summaries:      make(map[*Package]map[*types.Func]*FuncSummary, len(pkgs)),
		readerTypeObjs: make(map[*types.TypeName]bool),
		validators:     make(map[*types.Func]bool),
		seals:          make(map[*types.Func]bool),
		postSeals:      make(map[*types.Func]bool),
		sealedFields:   make(map[types.Object]bool),
	}
	for _, pkg := range pkgs {
		fi.byTypes[pkg.Types] = pkg
	}
	for _, pkg := range pkgs {
		fi.indexPackage(pkg)
	}
	for _, pkg := range pkgs {
		for _, ff := range fi.pkgFns[pkg] {
			fi.scanBody(ff)
		}
	}
	for _, pkg := range pkgs {
		fi.summarize(pkg)
	}
	fi.closeTransitive()
	return fi
}

// indexPackage records declarations and directives of one package.
func (fi *FlowIndex) indexPackage(pkg *Package) {
	deadScoped := fi.deadScoped(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				ff := &flowFunc{fn: fn, decl: d, pkg: pkg}
				fi.funcs[fn] = ff
				fi.pkgFns[pkg] = append(fi.pkgFns[pkg], ff)
				if hasDirective(d.Doc, ValidatorDirective) {
					fi.validators[fn] = true
				}
				if hasDirective(d.Doc, SealDirective) {
					fi.seals[fn] = true
				}
				if hasDirective(d.Doc, PostSealDirective) {
					fi.postSeals[fn] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if deadScoped {
						for _, doc := range []*ast.CommentGroup{ts.Doc, ts.Comment, d.Doc} {
							if hasDirective(doc, ReaderDirective) {
								if tn, _ := pkg.Info.Defs[ts.Name].(*types.TypeName); tn != nil {
									fi.readerTypeObjs[tn] = true
								}
							}
						}
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !hasDirective(field.Doc, SealedDirective) && !hasDirective(field.Comment, SealedDirective) {
							continue
						}
						for _, name := range field.Names {
							if obj := pkg.Info.Defs[name]; obj != nil {
								fi.sealedFields[obj] = true
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(fi.pkgFns[pkg], func(i, j int) bool {
		return fi.pkgFns[pkg][i].decl.Pos() < fi.pkgFns[pkg][j].decl.Pos()
	})
}

// scanBody fills a function's call edges, charge sites, cost operations and
// sealed-write sites in one syntactic pass.
func (fi *FlowIndex) scanBody(ff *flowFunc) {
	if ff.decl.Body == nil {
		return
	}
	pkg := ff.pkg
	seen := make(map[*types.Func]bool)
	ast.Inspect(ff.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pkg, n)
			if fn != nil {
				if fi.funcByObj(fn) != nil && !seen[fn] {
					seen[fn] = true
					ff.callees = append(ff.callees, fn)
				}
				if fn.Pkg() != nil && pkgPathIs(fn.Pkg().Path(), "hash/crc32") {
					ff.costOps = append(ff.costOps, costOp{pos: n.Pos(), what: fn.Pkg().Name() + "." + fn.Name() + " (CRC validation)"})
				}
				if isClockAdvance(fn) {
					ff.chargesDirect = true
				}
			}
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					ff.costOps = append(ff.costOps, costOp{pos: n.Pos(), what: "builtin copy (byte movement)"})
				}
			}
			// A pointer-receiver method invoked on a sealed field mutates it
			// (the e.acct.absorb(shard) pattern).
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s := pkg.Info.Selections[sel]; s != nil {
					if m, ok := s.Obj().(*types.Func); ok && recvIsPointer(m) {
						if name := fi.sealedFieldIn(pkg, sel.X); name != "" {
							ff.writesSealed = true
							ff.sealedWrites = append(ff.sealedWrites,
								sealedWrite{pos: n.Pos(), field: name})
						}
					}
				}
			}
		case *ast.SelectorExpr:
			if isCostModelSelector(pkg, n) {
				ff.chargesDirect = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if name := fi.sealedFieldIn(pkg, lhs); name != "" {
					ff.writesSealed = true
					ff.sealedWrites = append(ff.sealedWrites,
						sealedWrite{pos: lhs.Pos(), field: name})
				}
			}
		case *ast.IncDecStmt:
			if name := fi.sealedFieldIn(pkg, n.X); name != "" {
				ff.writesSealed = true
				ff.sealedWrites = append(ff.sealedWrites,
					sealedWrite{pos: n.X.Pos(), field: name})
			}
		}
		return true
	})
}

// closeTransitive propagates chargesDirect and writesSealed over the call
// graph to a fixpoint.
func (fi *FlowIndex) closeTransitive() {
	for _, ff := range fi.funcs {
		ff.chargesTrans = ff.chargesDirect
		ff.writesSealedTrans = ff.writesSealed
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range fi.pkgs {
			for _, ff := range fi.pkgFns[pkg] {
				for _, callee := range ff.callees {
					cf := fi.funcByObj(callee)
					if cf == nil {
						continue
					}
					if cf.chargesTrans && !ff.chargesTrans {
						ff.chargesTrans = true
						changed = true
					}
					if cf.writesSealedTrans && !ff.writesSealedTrans {
						ff.writesSealedTrans = true
						changed = true
					}
				}
			}
		}
	}
}

// funcByObj resolves a callee object to its declaration, if declared in the
// module.
func (fi *FlowIndex) funcByObj(fn *types.Func) *flowFunc {
	return fi.funcs[fn]
}

// pkgFuncs lists a package's declared functions in source order.
func (fi *FlowIndex) pkgFuncs(pkg *Package) []*flowFunc {
	return fi.pkgFns[pkg]
}

// deadScoped reports whether phys.Mem/reader accesses inside pkg carry
// dead-kernel provenance — i.e. the package is in deadtaint's default
// scope. Elsewhere (the live kernel reading its own memory) the same
// accessors are ordinary reads.
func (fi *FlowIndex) deadScoped(pkg *Package) bool {
	for _, s := range deadTaintScope {
		if pkg.Rel == s || strings.HasPrefix(pkg.Rel, s+"/") {
			return true
		}
	}
	return false
}

// summarize computes (once) the summary map of pkg, dependencies first,
// with an intra-package worklist run to fixpoint for mutual recursion.
func (fi *FlowIndex) summarize(pkg *Package) map[*types.Func]*FuncSummary {
	if m, ok := fi.summaries[pkg]; ok {
		return m
	}
	m := make(map[*types.Func]*FuncSummary)
	fi.summaries[pkg] = m
	for _, imp := range pkg.Types.Imports() {
		if dep := fi.byTypes[imp]; dep != nil {
			fi.summarize(dep)
		}
	}
	funcs := fi.pkgFns[pkg]
	for _, ff := range funcs {
		m[ff.fn] = &FuncSummary{}
	}
	// Reverse intra-package edges, so a summary change re-enqueues callers.
	callers := make(map[*types.Func][]*flowFunc)
	for _, ff := range funcs {
		for _, callee := range ff.callees {
			if cf := fi.funcByObj(callee); cf != nil && cf.pkg == pkg {
				callers[callee] = append(callers[callee], ff)
			}
		}
	}
	queue := append([]*flowFunc(nil), funcs...)
	queued := make(map[*flowFunc]bool, len(funcs))
	for _, ff := range funcs {
		queued[ff] = true
	}
	for len(queue) > 0 {
		ff := queue[0]
		queue = queue[1:]
		queued[ff] = false
		sum := fi.computeSummary(ff)
		if !sum.equal(m[ff.fn]) {
			m[ff.fn] = sum
			for _, caller := range callers[ff.fn] {
				if !queued[caller] {
					queued[caller] = true
					queue = append(queue, caller)
				}
			}
		}
	}
	return m
}

// summaryOf returns the cached summary of a module function, or nil for
// functions outside the module.
func (fi *FlowIndex) summaryOf(fn *types.Func) *FuncSummary {
	ff := fi.funcByObj(fn)
	if ff == nil {
		return nil
	}
	return fi.summaries[ff.pkg][fn]
}

// computeSummary runs the propagator over one function with its parameters
// seeded and extracts the summary.
func (fi *FlowIndex) computeSummary(ff *flowFunc) *FuncSummary {
	st := fi.newState(ff)
	st.run()
	sum := &FuncSummary{
		Results:  append([]taint(nil), st.results...),
		ParamOut: make([]taint, len(st.params)),
		Sinks:    st.sinks,
	}
	for i, obj := range st.params {
		if obj == nil || !referenceParam(obj.Type()) {
			continue
		}
		sum.ParamOut[i] = st.taints[obj] &^ paramBit(i)
	}
	return sum
}

// referenceParam reports whether writes through a parameter of type t are
// visible to the caller.
func referenceParam(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// reachable returns every function reachable from roots over module call
// edges, mapped to the first root that reaches it (BFS, deterministic).
func (fi *FlowIndex) reachable(roots []*flowFunc) map[*flowFunc]*flowFunc {
	out := make(map[*flowFunc]*flowFunc)
	var queue []*flowFunc
	for _, r := range roots {
		if _, ok := out[r]; !ok {
			out[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		ff := queue[0]
		queue = queue[1:]
		for _, callee := range ff.callees {
			cf := fi.funcByObj(callee)
			if cf == nil {
				continue
			}
			if _, ok := out[cf]; !ok {
				out[cf] = out[ff]
				queue = append(queue, cf)
			}
		}
	}
	return out
}

// entryRoots lists a package's call-graph roots: exported functions and
// methods, init/main, and //owvet:postseal entry points.
func (fi *FlowIndex) entryRoots(pkg *Package) []*flowFunc {
	var out []*flowFunc
	for _, ff := range fi.pkgFns[pkg] {
		name := ff.decl.Name.Name
		if ff.decl.Name.IsExported() || name == "init" || name == "main" || fi.postSeals[ff.fn] {
			out = append(out, ff)
		}
	}
	return out
}

// hasDirective reports whether a comment group contains the exact directive
// token (so owvet:seal never matches owvet:sealed).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "/*"))
		rest, ok := strings.CutPrefix(text, directive)
		if !ok {
			continue
		}
		if rest == "" || rest[0] == ' ' || rest[0] == ':' || rest[0] == '\t' {
			return true
		}
	}
	return false
}

// sealedFieldIn returns the name of the first //owvet:sealed field an
// expression selects, or "". Matching is by field object identity, so a
// same-named field on another struct (the reader's private ledger) never
// matches.
func (fi *FlowIndex) sealedFieldIn(pkg *Package, e ast.Expr) string {
	var found string
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[sel.Sel]
		if obj == nil {
			if s := pkg.Info.Selections[sel]; s != nil {
				obj = s.Obj()
			}
		}
		if obj != nil && fi.sealedFields[obj] {
			found = obj.Name()
			return false
		}
		return true
	})
	return found
}

// recvIsPointer reports whether a method has a pointer receiver.
func recvIsPointer(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().(*types.Pointer)
	return ok
}

// isClockAdvance matches sim.Clock.Advance — the machine-clock charge.
func isClockAdvance(fn *types.Func) bool {
	if fn.Name() != "Advance" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isSimNamed(sig.Recv().Type(), "Clock")
}

// isCostModelSelector matches any selection on a sim.CostModel value —
// reading a cost field or calling a cost method both count as consulting
// the cost model.
func isCostModelSelector(pkg *Package, sel *ast.SelectorExpr) bool {
	s := pkg.Info.Selections[sel]
	if s == nil {
		return false
	}
	return isSimNamed(s.Recv(), "CostModel")
}

// isSimNamed reports whether t is (a pointer to) internal/sim's named type.
func isSimNamed(t types.Type, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pkgPathIs(obj.Pkg().Path(), "internal/sim")
}

// isDeadSource reports whether fn is a sanctioned dead-kernel accessor
// whose call yields tainted bytes: a method of an //owvet:reader-marked
// type, or phys.Mem.{ReadAt,ReadU64,Frame}.
func (fi *FlowIndex) isDeadSource(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if crossKernelMethods[fn.Name()] && isPhysMem(rt) {
		return true
	}
	if tn := namedTypeName(rt); tn != nil && fi.readerTypeObjs[tn] {
		return true
	}
	return false
}

// isValidatorCall reports whether calling fn counts as CRC/range validation
// of its arguments: hash/crc32 functions, //owvet:validator-marked
// functions, and functions whose name says validate/verify.
func (fi *FlowIndex) isValidatorCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if fi.validators[fn] {
		return true
	}
	if fn.Pkg() != nil && pkgPathIs(fn.Pkg().Path(), "hash/crc32") {
		return true
	}
	lower := strings.ToLower(fn.Name())
	return strings.Contains(lower, "valid") || strings.Contains(lower, "verify")
}

// namedTypeName unwraps (a pointer to) a named type to its TypeName.
func namedTypeName(t types.Type) *types.TypeName {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// isErrorType reports whether t is the predeclared error type.
func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}
