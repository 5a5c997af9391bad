package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CrossKernel enforces the paper's Section 3.3–3.4 memory discipline: inside
// the crash-kernel-side packages (internal/resurrect, internal/dump), raw
// physical memory may only be read through the designated counting reader —
// the wrapper that validates CRCs and feeds the Table 4 byte accounting.
// Direct calls to phys.Mem.ReadAt / ReadU64 / CopyFrame / ReadShared bypass
// both, so every such call outside a type marked `//owvet:reader` is a
// violation — and so is capturing one of those methods as a method value
// (`f := mem.ReadAt`), which smuggles the unaccounted accessor past the
// call-site check.
var CrossKernel = &Analyzer{
	Name: "crosskernel",
	Doc: "forbid direct phys.Mem reads in crash-kernel packages; " +
		"all dead-kernel bytes must flow through the accounted reader wrapper",
	Scope: []string{"internal/resurrect", "internal/dump"},
	Run:   runCrossKernel,
}

// ReaderDirective marks the one type per package whose methods are the
// sanctioned raw-memory accessors.
const ReaderDirective = "owvet:reader"

// crossKernelMethods are the phys.Mem accessors that read main-kernel bytes.
var crossKernelMethods = map[string]bool{
	"ReadAt":     true,
	"ReadU64":    true,
	"CopyFrame":  true,
	"ReadShared": true,
}

// readerTypes collects the names of types marked with //owvet:reader.
func readerTypes(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// Scan raw comment lines: CommentGroup.Text() strips
				// `//tool:directive` comments, which is exactly the form
				// the marker takes.
				for _, doc := range []*ast.CommentGroup{ts.Doc, ts.Comment, gd.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if strings.Contains(c.Text, ReaderDirective) {
							out[ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}

// recvTypeName extracts the base type name of a method receiver.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// isPhysMem reports whether t is (a pointer to) the Mem type of the
// physical-memory package.
func isPhysMem(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Mem" && obj.Pkg() != nil && pkgPathIs(obj.Pkg().Path(), "internal/phys")
}

func runCrossKernel(p *Pass) {
	readers := readerTypes(p.Pkg)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Methods of the designated reader wrapper are the sanctioned
			// accessors; everything they do with phys.Mem is exempt.
			if name := recvTypeName(fd); name != "" && readers[name] {
				continue
			}
			// A selector in call position reports as a direct call; any
			// other reference to the same method is a method value that
			// escapes the call-site check — a parent CallExpr is always
			// visited before its Fun child, so the set is populated in time.
			called := make(map[*ast.SelectorExpr]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
						called[sel] = true
					}
					return true
				}
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !crossKernelMethods[sel.Sel.Name] {
					return true
				}
				selection := p.Pkg.Info.Selections[sel]
				if selection == nil {
					return true // package-qualified reference, not a method
				}
				if !isPhysMem(selection.Recv()) {
					return true
				}
				if called[sel] {
					p.Reportf(sel.Pos(),
						"direct phys.Mem.%s bypasses the CRC-verifying, Table-4-accounted reader; "+
							"read dead-kernel memory through the %s-marked wrapper",
						sel.Sel.Name, ReaderDirective)
				} else {
					p.Reportf(sel.Pos(),
						"method value phys.Mem.%s smuggles the unaccounted accessor past the call-site check; "+
							"read dead-kernel memory through the %s-marked wrapper",
						sel.Sel.Name, ReaderDirective)
				}
				return true
			})
		}
	}
}
