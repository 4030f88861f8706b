package lint

import (
	"go/ast"
	"go/types"
)

// CtxPlumb enforces the //imc:longrun cancellation contract. A longrun
// function is a compute entry point that can run for seconds to minutes
// (sample generation, solver loops, MC estimation); it must accept a
// context.Context as its first parameter, and when it hands work to
// another longrun function in the same package it must forward that
// context rather than minting a fresh context.Background()/TODO() —
// doing so silently severs the cancellation chain, which is exactly the
// bug class the ctx plumbing exists to prevent. Unannotated callers
// with no ctx of their own (a CLI main passing context.Background())
// stay legal: the contract binds only annotated functions.
var CtxPlumb = &Analyzer{
	Name: "ctxplumb",
	Doc:  "//imc:longrun functions must take ctx first and forward it to longrun callees",
	Kind: KindSyntactic,
	Run:  runCtxPlumb,
}

func runCtxPlumb(pkg *Package, r *Reporter) {
	dirs := funcDirectives(pkg)
	// Index the type objects of every annotated function so call sites
	// resolve across files and through method values.
	longrun := make(map[types.Object]bool)
	for fd, set := range dirs {
		if set[directiveLongRun] {
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				longrun[obj] = true
			}
		}
	}
	for _, file := range pkg.Files {
		file := file
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasDirective(dirs, fd, directiveLongRun) {
				continue
			}
			if !firstParamIsContext(pkg, file, fd.Type) {
				r.Reportf("ctxplumb", fd.Name.Pos(),
					"//imc:longrun function %s must take context.Context as its first parameter", fd.Name.Name)
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeIdent(call)
				if callee == nil || !longrun[pkg.Info.Uses[callee]] || len(call.Args) == 0 {
					return true
				}
				if inner, ok := call.Args[0].(*ast.CallExpr); ok {
					if sel, ok := pkg.selectorCall(file, inner, "context", "Background", "TODO"); ok {
						r.Reportf("ctxplumb", sel.Pos(),
							"%s severs the cancellation chain: forward ctx to longrun %s, not context.%s()",
							fd.Name.Name, callee.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// calleeIdent returns the identifier a call resolves through: the bare
// name for function calls, the selected name for method calls.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

func firstParamIsContext(pkg *Package, file *ast.File, ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	return isContextType(pkg, file, ft.Params.List[0].Type)
}
