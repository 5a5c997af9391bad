package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockDiscipline polices the concurrent packages (the campaign worker
// pool in experiment, the machine core it drives, the trace ring, and
// sched, whose schedule models the streaming resurrection pass evaluates)
// beyond what go vet's copylocks catches:
//
//   - sync.Mutex/RWMutex (or structs containing one) passed or returned by
//     value, which silently forks the lock;
//   - assignments and range variables that copy a lock-containing value;
//   - returning from a function while a mutex locked in that function may
//     still be held (no defer Unlock and no Unlock on the path), which
//     deadlocks the campaign's other workers.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc: "flag lock-by-value copies and return-while-locked patterns in " +
		"the concurrent packages",
	Scope: []string{"internal/experiment", "internal/trace", "internal/core", "internal/sched"},
	Run:   runLockDiscipline,
}

// containsLock reports whether t holds a sync.Mutex or sync.RWMutex by
// value. Pointers, slices, maps and channels stop the recursion: sharing a
// lock through them is fine.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
			(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// funcUnit is one independently-analyzed function body: a FuncDecl or a
// FuncLit. Nested FuncLits are excluded from the parent's scan (a worker
// goroutine does its own locking) and analyzed as their own units.
type funcUnit struct {
	typ  *ast.FuncType
	body *ast.BlockStmt
}

func collectUnits(f *ast.File) []funcUnit {
	var units []funcUnit
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				units = append(units, funcUnit{typ: n.Type, body: n.Body})
			}
		case *ast.FuncLit:
			units = append(units, funcUnit{typ: n.Type, body: n.Body})
		}
		return true
	})
	return units
}

// inspectUnit walks a unit's body without descending into nested FuncLits.
func inspectUnit(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func runLockDiscipline(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, u := range collectUnits(f) {
			checkLockByValueSig(p, u.typ)
			checkLockCopies(p, u)
			checkReturnWhileLocked(p, u)
		}
	}
}

// checkLockByValueSig flags lock-containing parameter and result types
// passed by value.
func checkLockByValueSig(p *Pass, ft *ast.FuncType) {
	fields := []*ast.FieldList{ft.Params, ft.Results}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			tv, ok := p.Pkg.Info.Types[field.Type]
			if !ok {
				continue
			}
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if containsLock(tv.Type, nil) {
				p.Reportf(field.Pos(),
					"%s passes a sync.Mutex by value; each call site gets its own lock "+
						"and mutual exclusion silently disappears — pass a pointer",
					types.ExprString(field.Type))
			}
		}
	}
}

// checkLockCopies flags assignments and range variables that copy a
// lock-containing value.
func checkLockCopies(p *Pass, u funcUnit) {
	inspectUnit(u.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for _, rhs := range n.Rhs {
				rhs = unparen(rhs)
				// Composite literals construct a fresh value; everything
				// else of a lock-containing type is a copy.
				if _, isLit := rhs.(*ast.CompositeLit); isLit {
					continue
				}
				tv, ok := p.Pkg.Info.Types[rhs]
				if !ok || !containsLock(tv.Type, nil) {
					continue
				}
				p.Reportf(n.Pos(),
					"assignment copies a lock-containing value (%s); the copy's mutex "+
						"no longer guards the original — use a pointer",
					tv.Type.String())
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return
			}
			t := exprOrDefType(p, n.Value)
			if t == nil || !containsLock(t, nil) {
				return
			}
			p.Reportf(n.Value.Pos(),
				"range variable copies a lock-containing value (%s); iterate by index "+
					"or store pointers", t.String())
		}
	})
}

// lockEvent is one Lock/Unlock/return observation inside a unit, ordered by
// source position (a linear over-approximation of control flow; branches
// that unlock before returning keep the running depth at zero).
type lockEvent struct {
	pos   token.Pos
	delta int // +1 Lock, -1 Unlock, 0 return
}

// checkReturnWhileLocked flags return statements at a point where a mutex
// locked earlier in the unit has not been unlocked and no defer covers it.
func checkReturnWhileLocked(p *Pass, u funcUnit) {
	events := make(map[string][]lockEvent) // mutex expr -> events
	deferred := make(map[string]bool)
	var returns []token.Pos

	inspectUnit(u.body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.DeferStmt:
			if key, _, ok := mutexCall(p, n.Call); ok {
				deferred[key] = true
			}
		case *ast.CallExpr:
			if key, delta, ok := mutexCall(p, n); ok && delta != 0 {
				events[key] = append(events[key], lockEvent{pos: n.Pos(), delta: delta})
			}
		}
	})
	if len(returns) == 0 {
		return
	}
	for key, evs := range events {
		if deferred[key] {
			continue
		}
		all := append([]lockEvent(nil), evs...)
		for _, r := range returns {
			all = append(all, lockEvent{pos: r})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].pos < all[j].pos })
		depth := 0
		for _, ev := range all {
			switch {
			case ev.delta > 0:
				depth++
			case ev.delta < 0:
				if depth > 0 {
					depth--
				}
			case depth > 0:
				p.Reportf(ev.pos,
					"return while %s may still be locked (no defer %s.Unlock on this path); "+
						"a leaked lock wedges the campaign worker pool", key, key)
			}
		}
	}
}

// exprOrDefType resolves an expression's type, falling back to the defined
// object for `:=`-declared identifiers (range variables live in Defs, not
// the Types map).
func exprOrDefType(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// mutexCall classifies a call as Lock/RLock (+1) or Unlock/RUnlock (-1) on
// a sync.Mutex/RWMutex-typed receiver, returning the receiver expression
// rendered as the grouping key.
func mutexCall(p *Pass, call *ast.CallExpr) (key string, delta int, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return "", 0, false
	}
	tv, found := p.Pkg.Info.Types[sel.X]
	if !found {
		return "", 0, false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", 0, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" ||
		(obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", 0, false
	}
	return types.ExprString(sel.X), delta, true
}
